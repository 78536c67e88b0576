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

// TestSiblingSummaryInvariance is the eval-level half of the sibling oracle
// (internal/dse/sibling_test.go runs it over SA outputs on the real zoo): a
// summary one evaluator computed, finished by a bandwidth sibling, equals
// what the sibling's private evaluator computes from scratch, bit for bit,
// under both D2D energy models — and costs the sibling no miss. A config
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
		for _, pair := range [][2]*arch.Config{{&a, &b}, {&b, &a}} {
			primer, asker := pair[0], pair[1]
			s := perLayerScheme(t, asker)
			evaluators[primer].Evaluate(s)
			before := cache.Stats().Misses
			got := evaluators[asker].Evaluate(s)
			if m := cache.Stats().Misses - before; m != 0 {
				t.Errorf("model %d: sibling %s recomputed %d groups primed by %s", model, asker, m, primer)
			}
			private := New(asker)
			private.Params.D2DModel = model
			if want := private.Evaluate(s); !want.Feasible || !reflect.DeepEqual(got, want) {
				t.Errorf("model %d: %s served by %s's summaries diverged:\n got %+v\nwant %+v", model, asker, primer, got, want)
			}
		}
		if ra, rb := evaluators[&a].Evaluate(perLayerScheme(t, &a)), evaluators[&b].Evaluate(perLayerScheme(t, &b)); ra.Delay >= rb.Delay {
			t.Errorf("model %d: the slower sibling is not slower (%v vs %v): finish ignores the bandwidths", model, ra.Delay, rb.Delay)
		}

		s := perLayerScheme(t, &two)
		before := cache.Stats()
		got := evaluators[&two].Evaluate(s)
		if st := cache.Stats(); st.Hits != before.Hits || st.Misses-before.Misses != int64(len(s.Groups)) {
			t.Errorf("model %d: a two-controller config hit five-controller summaries: %+v -> %+v", model, before, st)
		}
		private := New(&two)
		private.Params.D2DModel = model
		if want := private.Evaluate(s); !reflect.DeepEqual(got, want) {
			t.Errorf("model %d: two-controller result diverged", model)
		}
	}
}

// TestSharedCacheBitIdentical pins that serving from a shared cache is
// indistinguishable from recomputing: an evaluator on its own cache and two
// cache-sharing evaluators yield identical results, and two New evaluators
// share nothing.
func TestSharedCacheBitIdentical(t *testing.T) {
	cfg := arch.GArch72()
	s := cacheTestScheme(t, &cfg)

	own := New(&cfg)
	private := own.Evaluate(s)
	if !reflect.DeepEqual(private, NewWithCache(&cfg, NewCache()).Evaluate(s)) {
		t.Fatal("New and NewWithCache(fresh) disagree")
	}
	other := New(&cfg)
	other.Evaluate(s)
	if a, b := own.cache.Stats(), other.cache.Stats(); own.cache == other.cache ||
		b.Hits != 0 || b.Misses != a.Misses || b.Entries != a.Entries {
		t.Fatalf("two New evaluators share entries: %+v vs %+v", a, b)
	}

	cache := NewCache()
	first := NewWithCache(&cfg, cache).Evaluate(s)
	second := NewWithCache(&cfg, cache).Evaluate(s) // all groups warm

	for _, r := range []Result{first, second} {
		if r.Feasible != private.Feasible || r.Delay != private.Delay ||
			r.Energy != private.Energy || r.DRAMBytes != private.DRAMBytes {
			t.Fatalf("shared-cache result diverged: %+v vs %+v", r, private)
		}
	}

	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("second evaluator recorded no hits")
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Errorf("cold evaluation accounting wrong: %+v", st)
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	cfg := arch.GArch72()
	s := cacheTestScheme(t, &cfg)
	cache := NewCache()
	ev := NewWithCache(&cfg, cache)

	ev.Evaluate(s)
	st := cache.Stats()
	wantMisses := int64(len(s.Groups))
	if st.Misses != wantMisses || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses, 0 hits", st, wantMisses)
	}
	ev.Evaluate(s)
	st = cache.Stats()
	if st.Hits != wantMisses || st.Misses != wantMisses {
		t.Fatalf("warm stats = %+v, want %d hits / %d misses", st, wantMisses, wantMisses)
	}
	if st.Entries != len(s.Groups) {
		t.Errorf("entries = %d, want %d", st.Entries, len(s.Groups))
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

	sa := cacheTestScheme(t, &a)
	ra := NewWithCache(&a, cache).Evaluate(sa)
	if !ra.Feasible {
		t.Fatal("GArch72 should be feasible")
	}
	sb := cacheTestScheme(t, &b)
	rb := NewWithCache(&b, cache).Evaluate(sb)
	if rb.Feasible {
		t.Fatal("512-byte GLB served a feasible result (arch aliasing)")
	}
}

// TestCacheConcurrent: evaluators of four cuts of one core array share a
// cache from eight goroutines, asking for a group by content and for the same
// group by segment name, whose cut-free entry every cut reads and any of them
// may write. Every answer equals a private evaluator's.
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
				if r := ev.Evaluate(s); !r.Feasible || r.Groups[0] != want {
					t.Error("content path diverged under concurrency")
					return
				}
				var named GroupResult
				if !ev.LookupGroup(key, s.Batch, &named) {
					named = ev.EvaluateGroupAs(key, s, 0)
				}
				if named != want {
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
// group asked for by content, a cut-free segment asked for by name — is kept
// as its key alone. The first ask counts one miss and one entry; every later
// ask hits and reads back the zero value of its kind, whatever the reader's
// out held before.
func TestInfeasibleEntriesKeyOnly(t *testing.T) {
	cfg := arch.GArch72()
	cfg.GLBPerCore = 512 // no workload fits: every group is infeasible
	s := cacheTestScheme(t, &cfg)
	cache := NewCache()
	ev := NewWithCache(&cfg, cache)
	if !ev.cutFree {
		t.Fatal("GArch72 is one chiplet: its segments would not be cut-free")
	}
	groupKey, segKey := ev.groupKey(s, 0), ev.SegmentKey(s.Graph, s.Batch, 0, len(s.Graph.Layers), 1)
	dirty := groupScalars{Feasible: true, BatchUnit: 3, MAC: 1}
	for _, kind := range []struct {
		name    string
		ask     func() GroupResult
		read    func() (found, zero bool)
		keyOnly func() bool
	}{
		{"group", func() GroupResult { return ev.EvaluateGroup(s, 0) },
			func() (bool, bool) {
				sum := groupSummary{groupScalars: dirty, PerPass: noc.Digest{PeakNoC: 1}}
				found := cache.get(groupKey, &sum)
				return found, sum == groupSummary{}
			},
			func() bool { return keyOnly(&cache.shard(groupKey).m, groupKey) }},
		{"segment", func() GroupResult {
			var res GroupResult
			if !ev.LookupGroup(segKey, s.Batch, &res) {
				res = ev.EvaluateGroupAs(segKey, s, 0)
			}
			return res
		},
			func() (bool, bool) {
				seg := segmentSummary{groupScalars: dirty, Links: make([]noc.ClassLoad, 2)}
				found := cache.getSegment(segKey, &seg)
				return found, reflect.DeepEqual(seg, segmentSummary{})
			},
			func() bool { return keyOnly(&cache.shard(segKey).seg, segKey) }},
	} {
		before := cache.Stats()
		if r := kind.ask(); r.Feasible {
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
			if r := kind.ask(); r.Feasible {
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
	_, val := t.val[k]
	_, none := t.none[k]
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
}
