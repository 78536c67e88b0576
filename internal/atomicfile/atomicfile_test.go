package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFailurePreservesOldFile: a write callback that fails after
// emitting part of the new content leaves the old file byte-identical and
// no temp file behind.
func TestWriteFailurePreservesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	old := []byte(`{"cells":["settled"]}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("killed mid-save")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"cells":[`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want the callback's", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("old file changed to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.ckpt" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only sweep.ckpt", names)
	}
}

// TestWriteReplacesAndCreatesDirs: a successful write replaces the file
// and creates missing parent directories.
func TestWriteReplacesAndCreatesDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "out.json")
	for _, body := range []string{"first\n", "second\n"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("file = %q, want %q", got, body)
		}
	}
}
