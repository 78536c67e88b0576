package dse

import (
	"os"
	"testing"

	"gemini/internal/dnn"
)

// TestDiskCacheCorruptSpillDegradesToCold: a damaged spill file warms
// nothing and is no error — the sweep recomputes, and the next save
// replaces the file with a valid one.
func TestDiskCacheCorruptSpillDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(CachePath(dir), []byte("not a cache\n{..\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ses := NewSession()
	if n, err := ses.WarmDiskCache(dir); err != nil || n != 0 {
		t.Fatalf("corrupt spill warmed n=%d err=%v, want 0 and no error", n, err)
	}
	rs := ses.Run(testCands(), []*dnn.Graph{testCNN}, testOptions())
	if Best(rs) == nil {
		t.Fatal("sweep with corrupt spill found no feasible candidate")
	}
	if st := ses.CacheStats(); st.Misses == 0 {
		t.Errorf("corrupt spill should load nothing and run cold: %+v", st)
	}
	if err := ses.cache.SaveDisk(CachePath(dir)); err != nil {
		t.Fatal(err)
	}
	warm := NewSession()
	if n, err := warm.WarmDiskCache(dir); err != nil || n == 0 {
		t.Fatalf("rewritten spill unusable: n=%d err=%v", n, err)
	}
}

// TestWarmDiskCacheOncePerDir: warming is idempotent per (session, dir) —
// the second load of the same spill adds nothing.
func TestWarmDiskCacheOncePerDir(t *testing.T) {
	dir := t.TempDir()
	ses := NewSession()
	ses.Run(testCands()[:1], []*dnn.Graph{testCNN}, testOptions())
	if err := ses.cache.SaveDisk(CachePath(dir)); err != nil {
		t.Fatal(err)
	}

	other := NewSession()
	n1, err := other.WarmDiskCache(dir)
	if err != nil || n1 == 0 {
		t.Fatalf("first warm: n=%d err=%v", n1, err)
	}
	n2, err := other.WarmDiskCache(dir)
	if err != nil || n2 != 0 {
		t.Fatalf("second warm should add nothing: n=%d err=%v", n2, err)
	}
}
