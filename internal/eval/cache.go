package eval

import (
	"math"
	"sync"
	"sync/atomic"

	"gemini/internal/arch"
	"gemini/internal/intracore"
	"gemini/internal/noc"
)

// ConfigFingerprint hashes the structural fields of an architecture
// configuration — everything a GroupResult can depend on, and nothing it
// cannot (the Name is ignored). Two configs with equal fingerprints are
// evaluation-equivalent, so shared-cache entries and warmed evaluators can
// serve either: a chiplet-reuse candidate at factor 1 or a repeated request
// for the same tuple lands on the same warm state.
func ConfigFingerprint(cfg *arch.Config) uint64 {
	h := uint64(fnvOffset)
	for _, v := range [...]uint64{
		uint64(cfg.CoresX), uint64(cfg.CoresY),
		uint64(cfg.XCut), uint64(cfg.YCut),
		math.Float64bits(cfg.NoCBW), math.Float64bits(cfg.D2DBW),
		math.Float64bits(cfg.DRAMBW),
		uint64(cfg.MACsPerCore), uint64(cfg.GLBPerCore),
		math.Float64bits(cfg.FreqGHz), uint64(cfg.Topology),
	} {
		h = fnv1a(h, v)
	}
	return h
}

// AnalysisFingerprint hashes what a bandwidth-free group summary can depend
// on: ConfigFingerprint's fields minus the three bandwidths, plus the DRAM
// controller count. The count is derived from DRAMBW but is geometry, not
// speed — it decides where the DRAM ports attach and how interleaved flows
// split, so two DRAM bandwidths share summaries exactly when they imply the
// same count. Configs with equal analysis fingerprints are bandwidth
// siblings: one summary in a shared Cache serves them all, each finishing it
// at its own NoCBW/D2DBW/DRAMBW.
func AnalysisFingerprint(cfg *arch.Config) uint64 {
	h := fnv1a(fnv1a(fnvOffset, uint64(cfg.CoresX)), uint64(cfg.CoresY))
	h = fnv1a(fnv1a(h, uint64(cfg.XCut)), uint64(cfg.YCut))
	return hashArrayRest(h, cfg)
}

// cutFreeDomain is folded in ahead of a cut-free fingerprint, so it never
// equals an analysis fingerprint by construction.
const cutFreeDomain = 0x6375746672656531 // "cutfree1"

// cutFreeFingerprint is AnalysisFingerprint without the chiplet cut: what a
// stripe segment's cut-free summary can depend on. Every cut of one core
// array shares it.
func cutFreeFingerprint(cfg *arch.Config) uint64 {
	h := fnv1a(fnv1a(fnv1a(fnvOffset, cutFreeDomain), uint64(cfg.CoresX)), uint64(cfg.CoresY))
	return hashArrayRest(h, cfg)
}

// SegmentFingerprint is the Arch half of every segment key an evaluator of
// cfg asks the cache for (see Evaluator.SegmentKey): the cut-free fingerprint
// on a multi-chiplet array, whose every cut shares one entry, and
// AnalysisFingerprint on a monolithic one. Candidates with equal segment
// fingerprints share every stripe-segment summary; the fleet keeps each such
// segment group on one shard.
func SegmentFingerprint(cfg *arch.Config) uint64 {
	if cfg.Chiplets() > 1 {
		return cutFreeFingerprint(cfg)
	}
	return AnalysisFingerprint(cfg)
}

// hashArrayRest folds the analysis fingerprint's fields after the core array
// and the cut into h.
func hashArrayRest(h uint64, cfg *arch.Config) uint64 {
	for _, v := range [...]uint64{
		uint64(cfg.DRAMControllers()),
		uint64(cfg.MACsPerCore), uint64(cfg.GLBPerCore),
		math.Float64bits(cfg.FreqGHz), uint64(cfg.Topology),
	} {
		h = fnv1a(h, v)
	}
	return h
}

// CacheKey names one stripe segment of the partitioner in a Cache (see
// Evaluator.SegmentKey): the analysis fingerprint of the architecture — on a
// multi-chiplet array the cut-free fingerprint instead —, the graph's
// dnn.Graph.Fingerprint, and the segment fingerprint (params + batch + bu, j,
// i under a domain tag). All three components are stable across processes,
// so a cache can round-trip through SaveDisk/LoadDisk and keep serving.
type CacheKey struct {
	Arch  uint64
	Graph uint64
	FP    uint64
}

// cacheShards keeps lock contention low when many DSE workers race on one
// shared cache; the partitioner asks it for every segment. With
// cacheShardLimit it also sets the capacity, 2.1 M entries. One pruned sweep
// of the whole 72-TOPs grid × {resnet50, transformer} (8,820 candidates,
// seed 1, 2 workers) stores 1,056,208 entries, half of it, with 0 flushes;
// 42% of them are infeasible and kept as keys alone, and the sweep's heap
// after a GC is 273 MB in use (376 MB while every entry held a summary and
// every evaluator a route table of its own). The reduced grid stores
// 0.097 M entries and gains about 0.001 M per further seed (traced
// `go run ./bench` on zoo72_cold and zoo72_warm), so a session's reseeded
// sweeps do not fill it.
const cacheShards = 128

// cacheShardLimit bounds each shard; a full shard is flushed wholesale (a
// full flush is simpler than LRU: the working set of any one sweep is far
// below the limit, and a flush only costs recomputation).
const cacheShardLimit = 1 << 14

// cacheShard holds both kinds of summary, each in a table. The shard's tables
// together hold at most cacheShardLimit entries, and are only ever cleared,
// all at once, under mu.
type cacheShard struct {
	mu  sync.RWMutex
	m   table[groupSummary]
	seg table[segmentSummary]
}

// summaryKind is a kind of summary a Cache stores.
type summaryKind interface {
	groupSummary | segmentSummary
	feasible() bool
}

// table holds the summaries of one kind. An infeasible summary is the zero
// value of its kind — summarizeAnalysis and cutFreeSummary build nothing more
// for one — so it is kept as its key alone, in none, and a lookup that finds
// the key there reads the zero value back; about two in five entries a sweep
// stores are infeasible. Each map is made by the first store into it, so a
// shard that has held no infeasible entry has no set.
type table[S summaryKind] struct {
	val  map[CacheKey]S
	none map[CacheKey]struct{}
}

// get returns the summary stored under k and whether there was one.
func (t *table[S]) get(k CacheKey) (S, bool) {
	sum, ok := t.val[k]
	if !ok {
		_, ok = t.none[k]
	}
	return sum, ok
}

// put stores sum under k, an infeasible summary as its key alone.
func (t *table[S]) put(k CacheKey, sum S) {
	if !sum.feasible() {
		if t.none == nil {
			t.none = make(map[CacheKey]struct{})
		}
		t.none[k] = struct{}{}
		delete(t.val, k)
		return
	}
	if t.val == nil {
		t.val = make(map[CacheKey]S)
	}
	t.val[k] = sum
	delete(t.none, k)
}

// len counts the table's entries, key-only ones included.
func (t *table[S]) len() int { return len(t.val) + len(t.none) }

// clear empties the table.
func (t *table[S]) clear() {
	clear(t.val)
	clear(t.none)
}

// routeTableLimit bounds the route tables a Cache keeps, one per core array
// and topology; a full set is dropped wholesale, as a full shard is. A grid
// has a few arrays (the reduced 72-TOPs grid 3), and an evaluator keeps the
// table it was built on whatever the cache drops.
const routeTableLimit = 64

// routeKey names what a noc route table depends on.
type routeKey struct {
	x, y int
	topo arch.Topology
}

// Cache is the concurrency-safe segment-summary store the partitioner's
// Evaluators read and write by name. One cache may back many evaluators — and
// therefore span architecture candidates, models and whole DSE runs. Summaries
// are pure functions of their keys, so serving from the cache is
// bit-identical to recomputing; because they are bandwidth-free, a hit may
// have been paid for by a bandwidth sibling of the asking evaluator — and a
// cut-free segment by another chiplet cut of its core array.
//
// The cache also holds the intra-core Explore memo its evaluators share. An
// Explore result is a pure function of the (workload, core) pair the memo
// stores and compares, and depends on no cut, topology or bandwidth, so every
// candidate with the same cores — and every SA move on one of them — reads
// one entry. Likewise its evaluators share one noc route table per core array
// and topology, which no cut or bandwidth changes. Neither the memo nor the
// route tables are counted in Stats or spilled by SaveDisk.
type Cache struct {
	shards                [cacheShards]cacheShard
	hits, misses, flushes atomic.Int64
	memo                  *intracore.Memo

	routesMu sync.Mutex
	routes   map[routeKey]*noc.Routes
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{memo: intracore.NewMemo(), routes: make(map[routeKey]*noc.Routes)}
}

// routeTable returns the route table of cfg's core array and topology,
// building it on first use.
func (c *Cache) routeTable(cfg *arch.Config) *noc.Routes {
	k := routeKey{cfg.CoresX, cfg.CoresY, cfg.Topology}
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	r, ok := c.routes[k]
	if !ok {
		if len(c.routes) >= routeTableLimit {
			clear(c.routes)
		}
		r = noc.NewRoutes(cfg)
		c.routes[k] = r
	}
	return r
}

func (c *Cache) shard(k CacheKey) *cacheShard {
	return &c.shards[(k.Arch^k.FP)%cacheShards]
}

// A lookup counts as one hit or one miss, and the count does not depend on
// how concurrent evaluators interleave: get and getSegment count only hits,
// and the put or putSegment that follows a failed get counts the miss — or a
// hit, when another evaluator stored the key first. So Misses is the number
// of distinct summaries stored between flushes, and two racers asking for one
// new key count one miss and one hit in either order.

// get copies the group summary stored under k into *out and reports whether
// there was one.
func (c *Cache) get(k CacheKey, out *groupSummary) bool {
	s := c.shard(k)
	return lookup(c, s, &s.m, k, out)
}

// getSegment is get for a cut-free segment summary.
func (c *Cache) getSegment(k CacheKey, out *segmentSummary) bool {
	s := c.shard(k)
	return lookup(c, s, &s.seg, k, out)
}

// put stores a computed group summary.
func (c *Cache) put(k CacheKey, sum *groupSummary) {
	s := c.shard(k)
	c.countStore(store(c, s, &s.m, k, *sum, true))
}

// putSegment stores a computed cut-free segment summary.
func (c *Cache) putSegment(k CacheKey, seg segmentSummary) {
	s := c.shard(k)
	c.countStore(store(c, s, &s.seg, k, seg, true))
}

// countStore counts the lookup a put completes: a miss if the put added its
// key, a hit if another evaluator had stored it first.
func (c *Cache) countStore(added bool) {
	if added {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
}

// lookup copies the summary t, one of s's tables, holds for k into *out and
// reports whether there was one, counting a hit.
func lookup[S summaryKind](c *Cache, s *cacheShard, t *table[S], k CacheKey, out *S) bool {
	s.mu.RLock()
	sum, ok := t.get(k)
	s.mu.RUnlock()
	if ok {
		*out = sum
		c.hits.Add(1)
	}
	return ok
}

// store puts sum under k in t, one of s's tables — unless replace is false
// and k is already there — flushing the shard first if adding k would
// overfill it, and reports whether k was new. Replacing with an equal summary
// is harmless (summaries are pure functions of their keys) and repairs an
// entry a damaged spill loaded.
func store[S summaryKind](c *Cache, s *cacheShard, t *table[S], k CacheKey, sum S, replace bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, had := t.get(k)
	if had && !replace {
		return false
	}
	if !had && s.m.len()+s.seg.len() >= cacheShardLimit {
		s.m.clear()
		s.seg.clear()
		c.flushes.Add(1)
	}
	t.put(k, sum)
	return !had
}

// CacheStats is a point-in-time accounting snapshot of a shared cache.
type CacheStats struct {
	Hits, Misses, Flushes int64
	Entries               int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats reports the cache's lookup accounting and current size.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Flushes: c.flushes.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += s.m.len() + s.seg.len()
		s.mu.RUnlock()
	}
	return st
}
