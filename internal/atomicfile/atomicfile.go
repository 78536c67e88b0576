// Package atomicfile replaces a file's contents all at once: the new bytes
// go to a temp file in the same directory, which is renamed over the target
// only after it was written and closed in full. A reader, or a process
// killed mid-write, sees the old file or the new one, never a truncated or
// torn mix. Every checkpoint and cache spill in the module is written
// through it, and so is every rewrite of the sweep service's history log
// (its per-sweep lines are appended in place). It does not fsync: it guards
// against a killed process, not a lost machine, and keeps frequent
// checkpoint saves cheap.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates path's parent directories as needed and replaces path with
// whatever write emits. If write (or the close) fails, path is left
// untouched and the temp file is removed.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
