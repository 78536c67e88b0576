package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

// perLayerScheme stripes TinyCNN with one group per layer.
func perLayerScheme(t *testing.T, cfg *arch.Config) *core.Scheme {
	t.Helper()
	g := dnn.TinyCNN()
	groups := make([][]int, len(g.Layers))
	bus := make([]int, len(g.Layers))
	for i := range g.Layers {
		groups[i] = []int{i}
		bus[i] = 1
	}
	s, err := core.StripeScheme(g, cfg, groups, bus, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func populatedCache(t *testing.T) (*Cache, int) {
	t.Helper()
	cfg := arch.GArch72()
	cache := NewCache()
	askLayers(t, NewWithCache(&cfg, cache), 4)
	n := cache.Stats().Entries
	if n < 3 {
		t.Fatalf("populated cache has only %d entries; corruption cases need more", n)
	}
	return cache, n
}

// TestDiskRoundTripBitIdentical: a cache loaded from disk must hold every
// entry the original held — LoadDisk into a fresh cache returns exactly the
// saved cache's Stats().Entries, the invariant the benchmark's disk probe
// checks — and serve them bit-identically.
func TestDiskRoundTripBitIdentical(t *testing.T) {
	cfg := arch.GArch72()
	cache := NewCache()
	want, _ := askLayers(t, NewWithCache(&cfg, cache), 4)

	path := filepath.Join(t.TempDir(), "sub", "cache.ndjson")
	if err := cache.SaveDisk(path); err != nil {
		t.Fatal(err)
	}

	warm := NewCache()
	n, err := warm.LoadDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved := cache.Stats().Entries; n != saved || warm.Stats().Entries != saved {
		t.Fatalf("loaded %d entries (%d resident), want the saved cache's %d", n, warm.Stats().Entries, saved)
	}
	if got, _ := askLayers(t, NewWithCache(&cfg, warm), 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("disk-warmed results diverged: %+v vs %+v", got, want)
	}
	st := warm.Stats()
	if st.Misses != 0 {
		t.Errorf("disk-warmed evaluation recomputed %d groups", st.Misses)
	}
}

// TestDiskRoundTripKeyOnly: a cache holding feasible and infeasible entries
// of both kinds — monolithic segments' group summaries and cut-free segments —
// round-trips whole: LoadDisk into a fresh cache adds the saved cache's
// Stats().Entries entries, and the loaded cache answers every key as the
// saved one does, key-only entries with the zero value.
func TestDiskRoundTripKeyOnly(t *testing.T) {
	cache := NewCache()
	for _, glb := range []int{2 * arch.MB, 512} { // 512 bytes fit no workload
		for _, cut := range []int{2, 1} { // G-Arch's two chiplets, and its array as one
			cfg := arch.GArch72()
			cfg.GLBPerCore, cfg.XCut = glb, cut
			askLayers(t, NewWithCache(&cfg, cache), 4)
		}
	}
	var kinds [4]int // group, key-only group, segment, key-only segment
	count := func(kind int, keyOnly bool) {
		if keyOnly {
			kind++
		}
		kinds[kind]++
	}
	for i := range cache.shards {
		sh := &cache.shards[i]
		sh.m.each(func(_ CacheKey, _ groupSummary, keyOnly bool) { count(0, keyOnly) })
		sh.seg.each(func(_ CacheKey, _ segmentSummary, keyOnly bool) { count(2, keyOnly) })
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 || kinds[3] == 0 {
		t.Fatalf("entries by kind %v: the cache must hold all four", kinds)
	}

	path := filepath.Join(t.TempDir(), "cache.ndjson")
	if err := cache.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache()
	n, err := warm.LoadDisk(path)
	saved := cache.Stats().Entries
	if err != nil || n != saved || warm.Stats().Entries != saved {
		t.Fatalf("loaded %d entries (%d resident), err %v; want the saved cache's %d", n, warm.Stats().Entries, err, saved)
	}
	for i := range cache.shards {
		sh := &cache.shards[i]
		sh.m.each(func(k CacheKey, _ groupSummary, _ bool) {
			var a, b groupSummary
			if !cache.get(k, &a) || !warm.get(k, &b) || a != b {
				t.Errorf("group %+v: saved %+v, loaded %+v", k, a, b)
			}
		})
		sh.seg.each(func(k CacheKey, _ segmentSummary, _ bool) {
			var a, b segmentSummary
			if !cache.getSegment(k, &a) || !warm.getSegment(k, &b) || !reflect.DeepEqual(a, b) {
				t.Errorf("segment %+v: saved %+v, loaded %+v", k, a, b)
			}
		})
	}
}

// TestDiskSaveDeterministic: identical caches write identical bytes (sorted
// key order), so spill files are diffable and content-addressable. The cache
// is filled until its shards hold several entries each, where map order would
// show.
func TestDiskSaveDeterministic(t *testing.T) {
	cache, _ := populatedCache(t)
	cfg := arch.GArch72()
	for batch := 1; cache.Stats().Entries < 4*cacheShards; batch++ {
		askLayers(t, NewWithCache(&cfg, cache), batch)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := cache.SaveDisk(a); err != nil {
		t.Fatal(err)
	}
	if err := cache.SaveDisk(b); err != nil {
		t.Fatal(err)
	}
	ab, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if !bytes.Equal(ab, bb) {
		t.Error("two saves of one cache differ")
	}
}

// TestDiskLoadMissingIsCold: no file means a cold start, not an error.
func TestDiskLoadMissingIsCold(t *testing.T) {
	c := NewCache()
	n, err := c.LoadDisk(filepath.Join(t.TempDir(), "absent.ndjson"))
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestDiskLoadCorruptionTolerance: truncated tails and damaged lines cost
// only the entries they carried; garbage files degrade to cold. Nothing
// here may return an error.
func TestDiskLoadCorruptionTolerance(t *testing.T) {
	cache, total := populatedCache(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.ndjson")
	if err := cache.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")

	damaged := append([]string{}, lines...)
	damaged[1+total/2] = "{garbage\n" // overwrite one entry line
	cases := map[string]string{
		// Mid-entry truncation: the complete prefix lines must survive.
		"truncated": string(raw[:len(raw)-len(lines[len(lines)-2])/2-1]),
		// One damaged line in the middle: every other entry must survive.
		"damaged-line": strings.Join(damaged, ""),
		// Not a cache file at all.
		"garbage": "hello world\nnot json\n",
		// Wrong version header.
		"future-version": `{"kind":"gemini-eval-cache","version":999}` + "\n" + strings.Join(lines[1:], ""),
		// Empty file.
		"empty": "",
	}
	minLoaded := map[string]int{
		"truncated":      total - 2,
		"damaged-line":   total - 1,
		"garbage":        0,
		"future-version": 0,
		"empty":          0,
	}
	maxLoaded := map[string]int{
		"truncated":      total - 1,
		"damaged-line":   total - 1,
		"garbage":        0,
		"future-version": 0,
		"empty":          0,
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		n, err := c.LoadDisk(p)
		if err != nil {
			t.Errorf("%s: LoadDisk errored (%v); corruption must degrade to cold", name, err)
		}
		if n < minLoaded[name] || n > maxLoaded[name] {
			t.Errorf("%s: loaded %d entries, want in [%d, %d] of %d",
				name, n, minLoaded[name], maxLoaded[name], total)
		}
	}
}

// TestDiskDamagedSegmentMisses: a cut-free segment entry whose class loads do
// not fit the array it is named for, which only a damaged file can hold, is a
// miss rather than a panic or a wrong result.
func TestDiskDamagedSegmentMisses(t *testing.T) {
	cfg := arch.GArch72()
	cache := NewCache()
	ev := NewWithCache(&cfg, cache)
	key := ev.SegmentKey(dnn.TinyCNN(), 4, 0, 2, 1)
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	line := fmt.Sprintf(`{"a":"%016x","g":"%016x","f":"%016x","c":{"ok":true,"bu":1,"l":[{"p":1,"s":1}]}}`, key.Arch, key.Graph, key.FP)
	header := fmt.Sprintf(`{"kind":%q,"version":%d}`, diskKind, diskVersion)
	if err := os.WriteFile(path, []byte(header+"\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := cache.LoadDisk(path); err != nil || n != 1 {
		t.Fatalf("loaded %d entries, err %v; want the one", n, err)
	}
	var res GroupResult
	if ev.LookupGroup(key, 4, &res) {
		t.Errorf("a segment with 1 class load on a %d-class array served %+v", ev.Net.Classes(), res)
	}
}

// TestDiskV1FileLoadsCold: testdata/cache_v1.ndjson is a spill an old commit
// wrote from evaluating perLayerScheme — finished GroupResults keyed by
// ConfigFingerprint. Version 2 stores summaries under the analysis key, so
// the old file must load as a cold cache (0 entries, no error) and never
// serve a hit: decoded as version-2 entries its lines would be infeasible
// summaries.
func TestDiskV1FileLoadsCold(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "cache_v1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), `{"kind":"gemini-eval-cache","version":1}`+"\n") {
		t.Fatal("fixture is not a version-1 spill")
	}
	c := NewCache()
	n, err := c.LoadDisk(filepath.Join("testdata", "cache_v1.ndjson"))
	if err != nil || n != 0 || c.Stats().Entries != 0 {
		t.Fatalf("v1 file: loaded %d entries (%d resident), err=%v; want a cold cache", n, c.Stats().Entries, err)
	}

	// The groups the fixture was written from, asked for by name: all misses.
	cfg := arch.GArch72()
	got, want := askLayers(t, NewWithCache(&cfg, c), 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evaluation after a v1 load diverged: %+v vs %+v", got, want)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != int64(len(want)) {
		t.Fatalf("v1 file served lookups: %+v", st)
	}
}

// TestDiskConcurrentSaveLoad exercises save/load racing against live use of
// the cache (run under -race in CI): a spill snapshots while evaluations
// insert, and a second cache loads the latest spill.
func TestDiskConcurrentSaveLoad(t *testing.T) {
	cfg := arch.GArch72()
	cache := NewCache()
	path := filepath.Join(t.TempDir(), "cache.ndjson")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewWithCache(&cfg, cache)
			for i := 0; i < 20; i++ {
				askLayers(t, ev, 1+i%4)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := cache.SaveDisk(path); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			other := NewCache()
			if _, err := other.LoadDisk(path); err != nil {
				t.Errorf("load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestGraphFingerprintStructural: names do not matter, structure does, and
// the fingerprint is stable per pointer.
func TestGraphFingerprintStructural(t *testing.T) {
	a := dnn.TinyCNN()
	b := dnn.TinyCNN()
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on graph name")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	c := dnn.TinyTransformer()
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("structurally different graphs collide")
	}
}

// TestGraphFingerprintPinned pins CacheKey.Graph for three zoo models to the
// values eval.GraphFingerprint computed before the fingerprint moved onto
// the graph: a drift here silently orphans every spilled cache entry.
func TestGraphFingerprintPinned(t *testing.T) {
	for name, want := range map[string]uint64{
		"resnet50":    0x3cc6d673b57a80a3,
		"transformer": 0x6a2a8ee1b43e926a,
		"tinycnn":     0x21a8e8ca32f7090f,
	} {
		g, err := dnn.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", name, got, want)
		}
	}
}

// stripeEncodingPin is TestStripeEncodingPinned's hash at diskVersion 3.
const stripeEncodingPin uint64 = 0x516f2e6883d83a7c

// TestStripeEncodingPinned hashes the stripe LMS of every TinyCNN and
// TinyTransformer segment on G-Arch-72 at batch units 1/2/4/8. Spilled
// segment entries are named by (graph, core array, j, i, bu) and stand for
// the LMS Striper.Stripes built when they were written; a file outlives the
// binary that wrote it, so if the heuristic moves, the names in old files
// point at summaries of groups nobody would build any more.
func TestStripeEncodingPinned(t *testing.T) {
	cfg := arch.GArch72()
	st := core.NewStriper(&cfg)
	h := uint64(fnvOffset)
	for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
		ids := make([]int, len(g.Layers))
		for i := range ids {
			ids[i] = i
		}
		for j := range ids {
			for i := j + 1; i <= len(ids); i++ {
				for _, bu := range []int{1, 2, 4, 8} {
					lms, err := st.Stripes(g, ids[j:i], bu)
					if err != nil {
						t.Fatal(err)
					}
					h = fnv1a(h, uint64(lms.BatchUnit))
					for _, ms := range lms.MSs {
						for _, v := range [...]int{ms.Layer, ms.Part.H, ms.Part.W, ms.Part.B, ms.Part.K, ms.FD.IF, ms.FD.WGT, ms.FD.OF, len(ms.CG)} {
							h = fnv1a(h, uint64(int64(v)))
						}
						for _, c := range ms.CG {
							h = fnv1a(h, uint64(c))
						}
					}
				}
			}
		}
	}
	if h != stripeEncodingPin {
		t.Errorf("stripe encodings hash to %#016x, pinned %#016x at diskVersion %d: the stripe heuristic changed, "+
			"so segment entries in existing spills name groups it no longer builds — bump diskVersion in disk.go and re-pin together",
			h, stripeEncodingPin, diskVersion)
	}
}
