package eval

import (
	"math"
	"sync"
	"sync/atomic"

	"gemini/internal/arch"
	"gemini/internal/intracore"
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

// CacheKey addresses one group summary in a Cache: the analysis fingerprint
// of the architecture, the graph's dnn.Graph.Fingerprint, and either the
// group fingerprint (encoding + batch + params + cross-group context) or, for
// a stripe segment of the partitioner, the segment fingerprint (params +
// batch + bu, j, i under a domain tag; see Evaluator.SegmentKey) — whose
// first component, on a multi-chiplet array, is the cut-free fingerprint
// instead. All three components are stable across processes, so a cache can
// round-trip through SaveDisk/LoadDisk and keep serving.
type CacheKey struct {
	Arch  uint64
	Graph uint64
	FP    uint64
}

// cacheShards keeps lock contention low when many DSE workers race on one
// shared cache; the partitioner asks it for every segment, and an annealer
// for its starting and best schemes (its moves never ask). With
// cacheShardLimit it also sets the capacity, 2.1 M entries: the reduced
// 72-TOPs grid holds 0.097 M after one sweep and gains about 0.001 M per
// further seed (traced `go run ./bench` on zoo72_cold and zoo72_warm), so a
// session's reseeded sweeps do not fill it.
const cacheShards = 128

// cacheShardLimit bounds each shard; a full shard is flushed wholesale (a
// full flush is simpler than LRU: the working set of any one sweep is far
// below the limit, and a flush only costs recomputation).
const cacheShardLimit = 1 << 14

// cacheShard holds both kinds of summary. A map is made by the first store
// into it and only ever cleared, under mu; together they hold at most
// cacheShardLimit entries.
type cacheShard struct {
	mu  sync.RWMutex
	m   map[CacheKey]groupSummary
	seg map[CacheKey]segmentSummary
}

// Cache is the concurrency-safe group-summary store every Evaluator reads
// and writes. One cache may back many evaluators — and therefore span
// architecture candidates, models, SA restarts and whole DSE runs. Summaries
// are pure functions of their keys, so serving from the cache is
// bit-identical to recomputing; because they are bandwidth-free, a hit may
// have been paid for by a bandwidth sibling of the asking evaluator — and a
// cut-free segment by another chiplet cut of its core array.
//
// The cache also holds the intra-core Explore memo its evaluators share. An
// Explore result is a pure function of the (workload, core) pair the memo
// stores and compares, and depends on no cut, topology or bandwidth, so every
// candidate with the same cores — and every SA move on one of them — reads
// one entry. The memo is not counted in Stats and is not spilled by SaveDisk.
type Cache struct {
	shards                [cacheShards]cacheShard
	hits, misses, flushes atomic.Int64
	memo                  *intracore.Memo
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{memo: intracore.NewMemo()} }

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

// lookup copies the summary *m, one of s's maps, holds for k into *out and
// reports whether there was one, counting a hit.
func lookup[S groupSummary | segmentSummary](c *Cache, s *cacheShard, m *map[CacheKey]S, k CacheKey, out *S) bool {
	s.mu.RLock()
	sum, ok := (*m)[k]
	s.mu.RUnlock()
	if ok {
		*out = sum
		c.hits.Add(1)
	}
	return ok
}

// store puts sum under k in *m, one of s's maps, making the map if need be —
// unless replace is false and k is already there — flushing the shard first
// if adding k would overfill it, and reports whether k was new. Replacing
// with an equal summary is harmless (summaries are pure functions of their
// keys) and repairs an entry a damaged spill loaded.
func store[S groupSummary | segmentSummary](c *Cache, s *cacheShard, m *map[CacheKey]S, k CacheKey, sum S, replace bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *m == nil {
		*m = make(map[CacheKey]S)
	}
	_, had := (*m)[k]
	if had && !replace {
		return false
	}
	if !had && len(s.m)+len(s.seg) >= cacheShardLimit {
		clear(s.m)
		clear(s.seg)
		c.flushes.Add(1)
	}
	(*m)[k] = sum
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
		st.Entries += len(s.m) + len(s.seg)
		s.mu.RUnlock()
	}
	return st
}
