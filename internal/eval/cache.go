package eval

import (
	"math"
	mathbits "math/bits"
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

// SegmentGroup names a segment group: the Arch and Graph halves of a
// CacheKey, that is every stripe segment of one graph on one
// SegmentFingerprint. The cells of a sweep that share a group ask for the
// same entries, and DropGroup removes them together.
type SegmentGroup struct {
	Arch, Graph uint64
}

// Group returns the segment group k belongs to.
func (k CacheKey) Group() SegmentGroup { return SegmentGroup{Arch: k.Arch, Graph: k.Graph} }

// cacheShards keeps lock contention low when many DSE workers race on one
// shared cache; the partitioner asks it for every segment. With
// cacheShardLimit it also sets the capacity, 2.1 M entries, a backstop: a
// session drops each segment group's entries once no running sweep holds
// the group (dse.Session.Hold), so what stays resident is the working set of
// the sweeps in flight. Without the drops, one pruned sweep of the whole
// 72-TOPs grid × {resnet50, transformer} (8,820 candidates, seed 1, 2
// workers) stored 1,056,208 entries, half the capacity, with 0 flushes; 42%
// of them infeasible and kept as keys alone. The reduced grid stores 93,152
// entries (traced `go run ./bench` on zoo72_cold).
const cacheShards = 128

// cacheShardLimit bounds each shard; a full shard is flushed wholesale (a
// full flush is simpler than LRU: the working set of any one sweep is far
// below the limit, and a flush only costs recomputation).
const cacheShardLimit = 1 << 14

// cacheShard holds both kinds of summary, each in a table. The shard's tables
// together hold n entries, at most cacheShardLimit; they are cleared all at
// once, or one segment group at a time, under mu.
type cacheShard struct {
	mu  sync.RWMutex
	n   int
	m   table[groupSummary]
	seg table[segmentSummary]
}

// summaryKind is a kind of summary a Cache stores.
type summaryKind interface {
	groupSummary | segmentSummary
	feasible() bool
}

// table holds the summaries of one kind by segment group, so a group's
// entries leave a shard with one map delete. The table and each group's maps
// are made by the first store into them.
type table[S summaryKind] map[SegmentGroup]*groupEntries[S]

// groupEntries holds one segment group's summaries of one kind in a shard,
// by the key's FP. An infeasible summary is the zero value of its kind —
// summarizeAnalysis and cutFreeSummary build nothing more for one — so it is
// kept as its key alone, in none, and a lookup that finds the key there reads
// the zero value back; about two in five entries a sweep stores are
// infeasible.
type groupEntries[S summaryKind] struct {
	val  map[uint64]S
	none map[uint64]struct{}
}

// get returns the summary stored under k and whether there was one.
func (t table[S]) get(k CacheKey) (sum S, ok bool) {
	e := t[k.Group()]
	if e == nil {
		return sum, false
	}
	if sum, ok = e.val[k.FP]; !ok {
		_, ok = e.none[k.FP]
	}
	return sum, ok
}

// put stores sum under k, an infeasible summary as its key alone, and
// reports whether it made the table's entries for k's group.
func (t *table[S]) put(k CacheKey, sum S) (made bool) {
	if *t == nil {
		*t = make(table[S])
	}
	e := (*t)[k.Group()]
	if e == nil {
		e = new(groupEntries[S])
		(*t)[k.Group()] = e
		made = true
	}
	if !sum.feasible() {
		if e.none == nil {
			e.none = make(map[uint64]struct{})
		}
		e.none[k.FP] = struct{}{}
		delete(e.val, k.FP)
		return made
	}
	if e.val == nil {
		e.val = make(map[uint64]S)
	}
	e.val[k.FP] = sum
	delete(e.none, k.FP)
	return made
}

// drop removes group g's entries and returns how many there were, key-only
// ones included.
func (t table[S]) drop(g SegmentGroup) int {
	e := t[g]
	if e == nil {
		return 0
	}
	delete(t, g)
	return len(e.val) + len(e.none)
}

// each calls f with every entry of the table, a key-only one with the zero
// value, and whether it is key-only.
func (t table[S]) each(f func(k CacheKey, sum S, keyOnly bool)) {
	for g, e := range t {
		for fp, sum := range e.val {
			f(CacheKey{Arch: g.Arch, Graph: g.Graph, FP: fp}, sum, false)
		}
		var zero S
		for fp := range e.none {
			f(CacheKey{Arch: g.Arch, Graph: g.Graph, FP: fp}, zero, true)
		}
	}
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
// route tables are counted in Stats or spilled by SaveDisk, and DropGroup
// leaves both alone.
type Cache struct {
	shards                         [cacheShards]cacheShard
	hits, misses, flushes, dropped atomic.Int64
	memo                           *intracore.Memo

	// groupShards maps a segment group to the shards its entries were
	// stored in since its last drop, so DropGroup locks only those. A store
	// marks its shard under the shard's lock, and DropGroup takes the set
	// before it locks a shard, so a racing store's entry is either in the
	// shards the drop visits or marked in the group's next set.
	groupsMu    sync.Mutex
	groupShards map[SegmentGroup]shardSet

	routesMu sync.Mutex
	routes   map[routeKey]*noc.Routes
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		memo:        intracore.NewMemo(),
		routes:      make(map[routeKey]*noc.Routes),
		groupShards: make(map[SegmentGroup]shardSet),
	}
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

func shardIndex(k CacheKey) int { return int((k.Arch ^ k.FP) % cacheShards) }

func (c *Cache) shard(k CacheKey) *cacheShard { return &c.shards[shardIndex(k)] }

// shardSet is a set of shard indices.
type shardSet [cacheShards / 64]uint64

// markShard records that k's shard holds entries of k's group.
func (c *Cache) markShard(k CacheKey) {
	i := shardIndex(k)
	c.groupsMu.Lock()
	set := c.groupShards[k.Group()]
	set[i/64] |= 1 << (i % 64)
	c.groupShards[k.Group()] = set
	c.groupsMu.Unlock()
}

// A lookup counts as one hit or one miss, and the count does not depend on
// how concurrent evaluators interleave: get and getSegment count only hits,
// and the put or putSegment that follows a failed get counts the miss — or a
// hit, when another evaluator stored the key first. So Misses is the number
// of summaries stored: between flushes, the entries resident plus those
// DropGroup removed. Two racers asking for one new key count one miss and
// one hit in either order.

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
	if !had {
		if s.n >= cacheShardLimit {
			clear(s.m)
			clear(s.seg)
			s.n = 0
			c.flushes.Add(1)
		}
		s.n++
	}
	if t.put(k, sum) {
		c.markShard(k)
	}
	return !had
}

// DropGroup removes segment group g's entries, of both kinds and key-only
// ones included, and counts them in Stats' Dropped. It locks only the shards
// g's entries were stored in and deletes g's table entries there, so its
// cost does not grow with the other groups' entries, and dropping a group
// with no entries costs one map lookup. A dropped entry only costs
// recomputation: a summary is a pure function of its key.
func (c *Cache) DropGroup(g SegmentGroup) {
	c.groupsMu.Lock()
	set, ok := c.groupShards[g]
	delete(c.groupShards, g)
	c.groupsMu.Unlock()
	if !ok {
		return
	}
	n := 0
	for w := range set {
		for bits := set[w]; bits != 0; bits &= bits - 1 {
			s := &c.shards[w*64+mathbits.TrailingZeros64(bits)]
			s.mu.Lock()
			d := s.m.drop(g) + s.seg.drop(g)
			s.n -= d
			s.mu.Unlock()
			n += d
		}
	}
	c.dropped.Add(int64(n))
}

// CacheStats is a point-in-time accounting snapshot of a shared cache.
// Dropped counts the entries DropGroup removed; Entries those resident.
type CacheStats struct {
	Hits, Misses, Flushes, Dropped int64
	Entries                        int
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
		Dropped: c.dropped.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += s.n
		s.mu.RUnlock()
	}
	return st
}
