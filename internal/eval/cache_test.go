package eval

import (
	"reflect"
	"sync"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/noc"
)

func cacheTestScheme(t testing.TB, cfg *arch.Config) *core.Scheme {
	t.Helper()
	g := dnn.TinyCNN()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, cfg, [][]int{ids}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigFingerprint(t *testing.T) {
	a := arch.GArch72()
	b := arch.GArch72()
	b.Name = "renamed"
	if ConfigFingerprint(&a) != ConfigFingerprint(&b) {
		t.Error("fingerprint depends on Name")
	}
	c := arch.GArch72()
	c.NoCBW++
	if ConfigFingerprint(&a) == ConfigFingerprint(&c) {
		t.Error("fingerprint misses NoCBW")
	}
	d := arch.GArch72()
	d.GLBPerCore *= 2
	if ConfigFingerprint(&a) == ConfigFingerprint(&d) {
		t.Error("fingerprint misses GLBPerCore")
	}
}

// TestAnalysisFingerprint: bandwidth siblings share one analysis key, and
// everything a bandwidth-free summary can depend on splits it — including the
// DRAM controller count, which is derived from DRAMBW but moves the ports.
func TestAnalysisFingerprint(t *testing.T) {
	base := arch.GArch72()
	with := func(mut func(*arch.Config)) *arch.Config {
		c := base
		mut(&c)
		return &c
	}
	key := AnalysisFingerprint(&base)
	for name, sib := range map[string]*arch.Config{
		"name":  with(func(c *arch.Config) { c.Name = "renamed" }),
		"NoCBW": with(func(c *arch.Config) { c.NoCBW = 64 }),
		"D2DBW": with(func(c *arch.Config) { c.D2DBW = 4 }),
		// 144 and 147.456 GB/s both round up to five 32 GB/s controllers.
		"DRAMBW within one controller count": with(func(c *arch.Config) { c.DRAMBW = 147.456 }),
	} {
		if sib.DRAMControllers() != base.DRAMControllers() {
			t.Fatalf("%s: test sibling changes the controller count", name)
		}
		if AnalysisFingerprint(sib) != key {
			t.Errorf("analysis fingerprint depends on %s", name)
		}
	}
	for name, other := range map[string]*arch.Config{
		"CoresX":      with(func(c *arch.Config) { c.CoresX *= 2 }),
		"CoresY":      with(func(c *arch.Config) { c.CoresY *= 2 }),
		"XCut":        with(func(c *arch.Config) { c.XCut = 1 }),
		"YCut":        with(func(c *arch.Config) { c.YCut = 2 }),
		"MACsPerCore": with(func(c *arch.Config) { c.MACsPerCore *= 2 }),
		"GLBPerCore":  with(func(c *arch.Config) { c.GLBPerCore *= 2 }),
		"FreqGHz":     with(func(c *arch.Config) { c.FreqGHz = 2 }),
		"Topology":    with(func(c *arch.Config) { c.Topology = arch.FoldedTorus }),
		// 64 GB/s is two controllers, 144 GB/s five: the ports attach to
		// different edge routers and interleaved flows split differently.
		"DRAM controller count": with(func(c *arch.Config) { c.DRAMBW = 64 }),
	} {
		if AnalysisFingerprint(other) == key {
			t.Errorf("analysis fingerprint misses %s", name)
		}
	}
	if two := with(func(c *arch.Config) { c.DRAMBW = 64 }); two.DRAMControllers() != 2 || base.DRAMControllers() != 5 {
		t.Errorf("controller counts %d / %d, want 2 / 5", two.DRAMControllers(), base.DRAMControllers())
	}
}

// askSegment asks ev for the stripe segment [j,i) of g at batch unit bu as the
// partitioner asks for it: by name, striping it and storing its summary only
// on a miss. It returns the result and the one-group scheme the name stands
// for.
func askSegment(t testing.TB, ev *Evaluator, g *dnn.Graph, batch, j, i, bu int) (GroupResult, *core.Scheme) {
	t.Helper()
	st := core.NewStriper(ev.Cfg)
	lms, err := st.Stripes(g, allLayers(g)[j:i], bu)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Scheme{Graph: g, Batch: batch, Groups: []*core.LMS{lms}}
	key := ev.SegmentKey(g, batch, j, i, bu)
	var res GroupResult
	if !ev.LookupGroup(key, batch, &res) {
		res = ev.EvaluateGroupAs(key, s, 0)
	}
	return res, s
}

// askLayers asks ev by name for every one-layer segment of TinyCNN at batch
// unit 1, which fills a cache with several distinct entries, and returns the
// results alongside what a private evaluator of ev's architecture and Params
// computes for each segment from scratch.
func askLayers(t testing.TB, ev *Evaluator, batch int) (got, want []GroupResult) {
	t.Helper()
	private := New(ev.Cfg)
	private.Params = ev.Params
	g := dnn.TinyCNN()
	for l := range g.Layers {
		res, s := askSegment(t, ev, g, batch, l, l+1, 1)
		got = append(got, res)
		want = append(want, private.EvaluateGroup(s, 0))
	}
	return got, want
}

// TestEvaluateAsksNoCache: Evaluate, EvaluateGroup and Report compute from
// scratch. Run through evaluators that share one cache — bandwidth siblings,
// two chiplet cuts of one array and an evaluator with changed Params — they
// leave it without a hit, a miss or an entry, and each result equals a fresh
// evaluator's.
func TestEvaluateAsksNoCache(t *testing.T) {
	a := arch.GArch72()
	sib := a
	sib.NoCBW, sib.D2DBW, sib.DRAMBW = 8, 2, 130 // slower everywhere, still five controllers
	recut := a
	recut.XCut, recut.YCut = 3, 2
	cache := NewCache()
	var evs []*Evaluator
	for _, cfg := range []*arch.Config{&a, &sib, &recut, &a} {
		evs = append(evs, NewWithCache(cfg, cache))
	}
	evs[3].Params.D2DModel, evs[3].Params.MACpJ = SerDes, 2*evs[3].Params.MACpJ
	for round := 0; round < 2; round++ {
		for _, ev := range evs {
			fresh := New(ev.Cfg)
			fresh.Params = ev.Params
			s := perLayerScheme(t, ev.Cfg)
			if got, want := ev.Evaluate(s), fresh.Evaluate(s); !want.Feasible || !reflect.DeepEqual(got, want) {
				t.Errorf("%dx%d cut, round %d: Evaluate %+v, fresh %+v", ev.Cfg.XCut, ev.Cfg.YCut, round, got, want)
			}
			for gi := range s.Groups {
				if got, want := ev.EvaluateGroup(s, gi), fresh.EvaluateGroup(s, gi); got != want {
					t.Errorf("%dx%d cut, round %d: group %d %+v, fresh %+v", ev.Cfg.XCut, ev.Cfg.YCut, round, gi, got, want)
				}
			}
			got, err := ev.Report(s)
			want, werr := fresh.Report(s)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%dx%d cut, round %d: Report differs from a fresh evaluator's (errors %v, %v)", ev.Cfg.XCut, ev.Cfg.YCut, round, err, werr)
			}
		}
	}
	if st := cache.Stats(); st != (CacheStats{}) {
		t.Errorf("Evaluate, EvaluateGroup and Report moved the shared cache: %+v, want it untouched", st)
	}
}

// TestSiblingSummaryInvariance is the eval-level half of the sibling oracle
// (internal/dse/sibling_test.go runs it over partitions on the real zoo): a
// segment summary one evaluator stored, finished by a bandwidth sibling,
// equals what the sibling's private evaluator computes from scratch, bit for
// bit, under both D2D energy models — and costs the sibling no miss. A config
// with another controller count shares nothing.
func TestSiblingSummaryInvariance(t *testing.T) {
	a := arch.GArch72()
	b := arch.GArch72()
	b.NoCBW, b.D2DBW, b.DRAMBW = 8, 2, 130 // slower everywhere, still five controllers
	two := arch.GArch72()
	two.DRAMBW = 64
	for _, model := range []D2DModel{GRS, SerDes} {
		cache := NewCache()
		evaluators := map[*arch.Config]*Evaluator{}
		for _, cfg := range []*arch.Config{&a, &b, &two} {
			ev := NewWithCache(cfg, cache)
			ev.Params.D2DModel = model
			evaluators[cfg] = ev
		}
		delay := map[*arch.Config]float64{}
		for _, pair := range [][2]*arch.Config{{&a, &b}, {&b, &a}} {
			primer, asker := pair[0], pair[1]
			askLayers(t, evaluators[primer], 4)
			before := cache.Stats().Misses
			got, want := askLayers(t, evaluators[asker], 4)
			if m := cache.Stats().Misses - before; m != 0 {
				t.Errorf("model %d: sibling %s recomputed %d segments primed by %s", model, asker.Name, m, primer.Name)
			}
			for l := range want {
				if !want[l].Feasible || got[l] != want[l] {
					t.Errorf("model %d: %s served layer %d by %s's summary:\n got %+v\nwant %+v", model, asker.Name, l, primer.Name, got[l], want[l])
				}
				delay[asker] += got[l].Delay
			}
		}
		if delay[&a] >= delay[&b] {
			t.Errorf("model %d: the slower sibling is not slower (%v vs %v): finish ignores the bandwidths", model, delay[&a], delay[&b])
		}

		before := cache.Stats()
		got, want := askLayers(t, evaluators[&two], 4)
		if st := cache.Stats(); st.Hits != before.Hits || st.Misses-before.Misses != int64(len(want)) {
			t.Errorf("model %d: a two-controller config hit five-controller summaries: %+v -> %+v", model, before, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("model %d: two-controller result diverged", model)
		}
	}
}

// TestSharedCacheBitIdentical pins that serving a segment from a shared cache
// is indistinguishable from computing it: an evaluator on its own cache, two
// cache-sharing evaluators and EvaluateGroup from scratch yield identical
// results, and two New evaluators share nothing.
func TestSharedCacheBitIdentical(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	n := len(g.Layers)

	own := New(&cfg)
	private, s := askSegment(t, own, g, 4, 0, n, 1)
	if want := New(&cfg).EvaluateGroup(s, 0); !want.Feasible || private != want {
		t.Fatalf("named segment %+v, from scratch %+v", private, want)
	}
	other := New(&cfg)
	askSegment(t, other, g, 4, 0, n, 1)
	if a, b := own.cache.Stats(), other.cache.Stats(); own.cache == other.cache ||
		b.Hits != 0 || b.Misses != a.Misses || b.Entries != a.Entries {
		t.Fatalf("two New evaluators share entries: %+v vs %+v", a, b)
	}

	cache := NewCache()
	first, _ := askSegment(t, NewWithCache(&cfg, cache), g, 4, 0, n, 1)
	second, _ := askSegment(t, NewWithCache(&cfg, cache), g, 4, 0, n, 1) // warm
	if first != private || second != private {
		t.Fatalf("shared-cache results diverged: %+v, %+v vs %+v", first, second, private)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("two asks for one segment: %+v, want 1 miss, 1 hit, 1 entry", st)
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	cfg := arch.GArch72()
	cache := NewCache()
	ev := NewWithCache(&cfg, cache)

	_, want := askLayers(t, ev, 4)
	st := cache.Stats()
	wantMisses := int64(len(want))
	if st.Misses != wantMisses || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses, 0 hits", st, wantMisses)
	}
	askLayers(t, ev, 4)
	st = cache.Stats()
	if st.Hits != wantMisses || st.Misses != wantMisses {
		t.Fatalf("warm stats = %+v, want %d hits / %d misses", st, wantMisses, wantMisses)
	}
	if st.Entries != len(want) {
		t.Errorf("entries = %d, want %d", st.Entries, len(want))
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("empty stats hit rate not 0")
	}
}

// TestCacheArchIsolation: two architectures must never share entries.
func TestCacheArchIsolation(t *testing.T) {
	a := arch.GArch72()
	b := arch.GArch72()
	b.GLBPerCore = 512 // same geometry, infeasible buffers
	b.Name = "tiny-glb"
	cache := NewCache()
	g := dnn.TinyCNN()

	if ra, _ := askSegment(t, NewWithCache(&a, cache), g, 4, 0, len(g.Layers), 1); !ra.Feasible {
		t.Fatal("GArch72 should be feasible")
	}
	if rb, _ := askSegment(t, NewWithCache(&b, cache), g, 4, 0, len(g.Layers), 1); rb.Feasible {
		t.Fatal("512-byte GLB served a feasible result (arch aliasing)")
	}
}

// TestCacheConcurrent: evaluators of four cuts of one core array share a
// cache from eight goroutines, asking for one group by segment name, whose
// cut-free entry every cut reads and any of them may write. Every answer
// equals a private evaluator's.
func TestCacheConcurrent(t *testing.T) {
	cache := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := arch.GArch72()
			cfg.XCut, cfg.YCut = []int{2, 3, 6, 1}[w%4], []int{1, 2, 6, 1}[w%4]
			s := cacheTestScheme(t, &cfg)
			want := New(&cfg).EvaluateGroup(s, 0)
			ev := NewWithCache(&cfg, cache)
			key := ev.SegmentKey(s.Graph, s.Batch, 0, len(s.Graph.Layers), 1)
			for i := 0; i < 20; i++ {
				var named GroupResult
				if !ev.LookupGroup(key, s.Batch, &named) {
					named = ev.EvaluateGroupAs(key, s, 0)
				}
				if !want.Feasible || named != want {
					t.Errorf("cut %dx%d: named path %+v under concurrency, private %+v", cfg.XCut, cfg.YCut, named, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("no hits under concurrent reuse: %+v", st)
	}
}

// TestInfeasibleEntriesKeyOnly: an infeasible summary of either kind — a
// monolithic array's segment, stored as a groupSummary, and a multi-chiplet
// array's cut-free segment — is kept as its key alone. The first ask counts
// one miss and one entry; every later ask hits and reads back the zero value
// of its kind, whatever the reader's out held before.
func TestInfeasibleEntriesKeyOnly(t *testing.T) {
	cfg := arch.GArch72()
	cfg.GLBPerCore = 512 // no workload fits: every group is infeasible
	mono := cfg
	mono.XCut, mono.YCut = 1, 1
	cache := NewCache()
	ev, monoEv := NewWithCache(&cfg, cache), NewWithCache(&mono, cache)
	if !ev.cutFree || monoEv.cutFree {
		t.Fatal("GArch72 must be cut-free and its array without the cut not")
	}
	g := dnn.TinyCNN()
	monoKey, segKey := monoEv.SegmentKey(g, 4, 0, len(g.Layers), 1), ev.SegmentKey(g, 4, 0, len(g.Layers), 1)
	dirty := groupScalars{Feasible: true, BatchUnit: 3, MAC: 1}
	for _, kind := range []struct {
		name    string
		ev      *Evaluator
		read    func() (found, zero bool)
		keyOnly func() bool
	}{
		{"monolithic", monoEv,
			func() (bool, bool) {
				sum := groupSummary{groupScalars: dirty, PerPass: noc.Digest{PeakNoC: 1}}
				found := cache.get(monoKey, &sum)
				return found, sum == groupSummary{}
			},
			func() bool { return keyOnly(&cache.shard(monoKey).m, monoKey) }},
		{"cut-free", ev,
			func() (bool, bool) {
				seg := segmentSummary{groupScalars: dirty, Links: make([]noc.ClassLoad, 2)}
				found := cache.getSegment(segKey, &seg)
				return found, reflect.DeepEqual(seg, segmentSummary{})
			},
			func() bool { return keyOnly(&cache.shard(segKey).seg, segKey) }},
	} {
		ask := func() GroupResult {
			res, _ := askSegment(t, kind.ev, g, 4, 0, len(g.Layers), 1)
			return res
		}
		before := cache.Stats()
		if r := ask(); r.Feasible {
			t.Fatalf("%s: a 512-byte GLB evaluated feasible", kind.name)
		}
		st := cache.Stats()
		if st.Misses-before.Misses != 1 || st.Hits != before.Hits || st.Entries-before.Entries != 1 {
			t.Fatalf("%s: a cold ask moved the stats %+v -> %+v, want one miss and one entry", kind.name, before, st)
		}
		if !kind.keyOnly() {
			t.Errorf("%s: not stored as its key alone", kind.name)
		}
		for i := 0; i < 2; i++ {
			if r := ask(); r.Feasible {
				t.Fatalf("%s: a warm ask turned feasible", kind.name)
			}
			if found, zero := kind.read(); !found || !zero {
				t.Errorf("%s: read back found=%t zero=%t, want the zero value", kind.name, found, zero)
			}
		}
		if end := cache.Stats(); end.Misses != st.Misses || end.Hits-st.Hits != 4 || end.Entries != st.Entries {
			t.Errorf("%s: warm asks moved the stats %+v -> %+v, want 4 hits and nothing else", kind.name, st, end)
		}
	}
}

// keyOnly reports whether t holds k as its key alone.
func keyOnly[S summaryKind](t *table[S], k CacheKey) bool {
	e := (*t)[k.Group()]
	if e == nil {
		return false
	}
	_, val := e.val[k.FP]
	_, none := e.none[k.FP]
	return none && !val
}

// TestShardFlushCountsKeyOnlyEntries: the shard limit counts every entry of
// both kinds, key-only ones included, so the store past cacheShardLimit into
// one shard flushes it wholesale, and what it held — key-only entries too —
// then misses.
func TestShardFlushCountsKeyOnlyEntries(t *testing.T) {
	c := NewCache()
	key := func(i int) CacheKey { return CacheKey{Arch: 3, FP: uint64(i) * cacheShards} } // all in one shard
	ok := groupScalars{Feasible: true, BatchUnit: 1}
	for i := 0; i <= cacheShardLimit; i++ {
		switch i % 4 {
		case 0:
			c.put(key(i), &groupSummary{groupScalars: ok})
		case 1:
			c.put(key(i), &groupSummary{})
		case 2:
			c.putSegment(key(i), segmentSummary{groupScalars: ok})
		case 3:
			c.putSegment(key(i), segmentSummary{})
		}
		if i == cacheShardLimit-1 {
			if st := c.Stats(); st.Entries != cacheShardLimit || st.Flushes != 0 {
				t.Fatalf("a full shard: %+v, want %d entries and no flush", st, cacheShardLimit)
			}
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Flushes != 1 || st.Misses != cacheShardLimit+1 {
		t.Fatalf("after the store past the limit: %+v, want 1 entry, 1 flush, %d misses", st, cacheShardLimit+1)
	}
	var sum groupSummary
	var seg segmentSummary
	if c.get(key(1), &sum) || c.getSegment(key(3), &seg) || c.get(key(0), &sum) || c.getSegment(key(2), &seg) {
		t.Error("an entry survived the flush")
	}
	// The entry stored after the flush still leaves with its group.
	c.DropGroup(key(0).Group())
	if st := c.Stats(); st.Entries != 0 || st.Dropped != 1 {
		t.Fatalf("after dropping the group: %+v, want 0 entries and 1 dropped", st)
	}
}

// TestDropGroup: DropGroup removes one segment group's entries — both kinds,
// key-only ones included — and no other's. Stats count them as Dropped, so
// Misses stays Entries plus Dropped; dropping the group again, or a group
// the cache never held, drops nothing; and the dropped segments asked again
// miss and come back equal to what they were.
func TestDropGroup(t *testing.T) {
	cache := NewCache()
	type asked struct {
		ev      *Evaluator
		g       *dnn.Graph
		results []GroupResult
	}
	var all []asked
	for _, glb := range []int{2 * arch.MB, 512} { // 512 bytes fit no workload: key-only entries
		for _, cut := range []int{2, 1} { // G-Arch's two chiplets (cut-free entries), and its array as one
			cfg := arch.GArch72()
			cfg.GLBPerCore, cfg.XCut = glb, cut
			for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
				ev := NewWithCache(&cfg, cache)
				a := asked{ev: ev, g: g}
				for l := range g.Layers {
					res, _ := askSegment(t, ev, g, 4, l, l+1, 1)
					a.results = append(a.results, res)
				}
				all = append(all, a)
			}
		}
	}
	group := func(a asked) SegmentGroup { return a.ev.SegmentKey(a.g, 4, 0, 1, 1).Group() }
	filled := cache.Stats()
	if filled.Dropped != 0 || filled.Misses != int64(filled.Entries) {
		t.Fatalf("filled cache: %+v, want one resident entry per miss", filled)
	}
	for n, a := range all {
		before := cache.Stats()
		cache.DropGroup(group(a))
		st := cache.Stats()
		gone := len(a.g.Layers)
		if st.Entries != before.Entries-gone || st.Dropped != before.Dropped+int64(gone) ||
			st.Misses != before.Misses || st.Hits != before.Hits || st.Misses != int64(st.Entries)+st.Dropped {
			t.Fatalf("drop %d: %+v -> %+v, want %d entries dropped and nothing else moved", n, before, st, gone)
		}
		cache.DropGroup(group(a))
		cache.DropGroup(SegmentGroup{Arch: group(a).Arch, Graph: group(a).Graph + 1})
		if again := cache.Stats(); again != st {
			t.Fatalf("drop %d: a second drop and a drop of an unheld group moved the stats %+v -> %+v", n, st, again)
		}
		for _, b := range all[n+1:] { // the groups not yet dropped still hit
			var res GroupResult
			if !b.ev.LookupGroup(b.ev.SegmentKey(b.g, 4, 0, 1, 1), 4, &res) || res != b.results[0] {
				t.Fatalf("drop %d: another group's entry went with it", n)
			}
		}
	}
	if st := cache.Stats(); st.Entries != 0 || st.Dropped != int64(filled.Entries) {
		t.Fatalf("every group dropped: %+v, want 0 entries and %d dropped", st, filled.Entries)
	}
	for _, a := range all {
		before := cache.Stats()
		for l := range a.g.Layers {
			if res, _ := askSegment(t, a.ev, a.g, 4, l, l+1, 1); res != a.results[l] {
				t.Errorf("%s layer %d: recomputed %+v, want %+v as before the drop", a.g.Name, l, res, a.results[l])
			}
		}
		if st := cache.Stats(); st.Misses-before.Misses != int64(len(a.g.Layers)) {
			t.Errorf("%s: re-asking a dropped group counted %d misses, want %d", a.g.Name, st.Misses-before.Misses, len(a.g.Layers))
		}
	}
}
