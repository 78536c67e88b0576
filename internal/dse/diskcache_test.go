package dse

import (
	"os"
	"testing"

	"gemini/internal/dnn"
)

// TestDiskCacheRestartWarm simulates a killed-and-restarted process: a
// fresh session warmed from the predecessor's spill must recompute zero
// cached group evaluations (every lookup of the identical sweep hits), and
// its results must be bit-identical.
func TestDiskCacheRestartWarm(t *testing.T) {
	dir := t.TempDir()
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()

	first := NewSession()
	want := first.Run(cands, models, opt)
	if Best(want) == nil {
		t.Fatal("no feasible candidate")
	}
	if err := first.SaveDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(CachePath(dir)); err != nil {
		t.Fatalf("save left no cache spill: %v", err)
	}

	// "Restart": a brand-new session (new process stand-in) warmed from the
	// same cache directory. The graphs are the same pointers here, but the
	// disk keys are content fingerprints — rebuilt graphs hash identically,
	// which TestGraphFingerprintStructural pins on the eval side.
	second := NewSession()
	if n, err := second.WarmDiskCache(dir); err != nil || n == 0 {
		t.Fatalf("warm: n=%d err=%v", n, err)
	}
	got := second.Run(cands, models, opt)
	resultsEqual(t, want, got, "disk-warmed restart")

	st := second.CacheStats()
	if st.Misses != 0 {
		t.Errorf("restarted session recomputed %d group evaluations, want 0", st.Misses)
	}
	if st.DiskHits == 0 || st.DiskLoaded == 0 {
		t.Errorf("disk accounting empty after warm restart: %+v", st)
	}
}

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
	if st := ses.CacheStats(); st.DiskLoaded != 0 || st.Misses == 0 {
		t.Errorf("corrupt spill should load nothing and run cold: %+v", st)
	}
	if err := ses.SaveDiskCache(dir); err != nil {
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
	if err := ses.SaveDiskCache(dir); err != nil {
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

// TestDiskCacheMultiSessionUnion pins the multi-writer durability fix: two
// sessions with distinct caches saving to one cache directory (two server
// processes on one -cache-dir) must converge on the union of their work — the
// second save must not discard the first's entries. A fresh "restarted"
// session must then replay either sweep with zero recomputed group
// evaluations.
func TestDiskCacheMultiSessionUnion(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions()
	cands := testCands()

	// Session A evaluates candidate 0, session B candidate 1 — disjoint
	// entry sets, saved to the same spill file in sequence.
	a := NewSession()
	if Best(a.Run(cands[:1], []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("sweep A infeasible")
	}
	if err := a.SaveDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	b := NewSession()
	if Best(b.Run(cands[1:], []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("sweep B infeasible")
	}
	if err := b.SaveDiskCache(dir); err != nil {
		t.Fatal(err)
	}

	// The restarted process must warm both sweeps from the union.
	c := NewSession()
	if n, err := c.WarmDiskCache(dir); err != nil || n == 0 {
		t.Fatalf("warm failed: n=%d err=%v", n, err)
	}
	if Best(c.Run(cands, []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("restarted sweep infeasible")
	}
	if st := c.CacheStats(); st.Misses != 0 {
		t.Errorf("restarted session recomputed %d group evaluations; session B's save clobbered session A's entries", st.Misses)
	}
}
