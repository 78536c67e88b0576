// Disk spill for the shared evaluation cache. Segment summaries are pure
// functions of their (analysis, graph, segment) fingerprints, so a cache
// written by one process is valid input for any other. No front end
// spills its cache: SaveDisk and LoadDisk remain only for the benchmark
// harness's disk probe (bench/ladder.go probeDisk), which times them.
//
// The format is line-oriented JSON — a version header followed by one entry
// per line — written to a temp file and atomically renamed into place.
// Loading tolerates corruption at entry granularity: a truncated tail or a
// damaged line costs exactly the entries it carried, never the file, and a
// file too broken to parse degrades to a cold cache rather than an error.
// Float fields survive the JSON round trip bit-exactly (Go encodes the
// shortest representation that parses back to the same value), so a
// disk-served summary is bit-identical to the recomputation it replaces.

package eval

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"gemini/internal/atomicfile"
)

// diskHeader is the first line of a spilled cache file.
type diskHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
}

// diskVersion 5 stores the partitioner's stripe segments by name
// (Evaluator.SegmentKey) as bandwidth-free summaries — cut-free on a
// multi-chiplet array, under the analysis key on a monolithic one —, their
// traffic counted exactly in 1/d-byte units and each figure rounded once.
// A version-5 file may also hold content-keyed group entries, which
// EvaluateGroup no longer stores: they load like any entry, and nothing asks
// for them. A named
// entry is only as good as the stripe heuristic that built the LMS it stands
// for: a change to what core.Striper.Stripes returns for some (graph, core array, j,
// i, bu) must bump this version, and TestStripeEncodingPinned fails until it
// is re-pinned alongside. Version 4 added interleaved DRAM shares of bytes/d
// in one fixed flow order and held cut-free class loads in bytes, so its
// summaries differ from today's in the last bits under the same keys;
// version 3 summed byte-hops per link traversal and held no cut-free entries;
// version 2 held the partitioner's segments under content keys nothing asks
// for any more, version 1 finished GroupResults under ConfigFingerprint:
// files of all four load as cold.
const (
	diskKind    = "gemini-eval-cache"
	diskVersion = 5
)

// diskEntry is one cache cell on disk: a monolithic segment's group summary
// or a cut-free segment summary. Fingerprints are hex strings: JSON numbers
// are float64 and would corrupt uint64 keys past 2^53.
type diskEntry struct {
	Arch    string          `json:"a"`
	Graph   string          `json:"g"`
	FP      string          `json:"f"`
	Summary *groupSummary   `json:"s,omitempty"`
	Segment *segmentSummary `json:"c,omitempty"`
}

// SaveDisk atomically writes a snapshot of every cache entry to path, creating parent directories as
// needed. Entries are emitted in sorted key order, so identical caches
// produce identical files. Concurrent SaveDisk calls are safe: each writes
// its own temp file and the rename is atomic, so readers always see a
// complete file (last writer wins).
func (c *Cache) SaveDisk(path string) error {
	type kv struct {
		k   CacheKey
		sum *groupSummary
		seg *segmentSummary
	}
	var all []kv
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, e := range s.m.val {
			all = append(all, kv{k: k, sum: &e})
		}
		for k := range s.m.none {
			all = append(all, kv{k: k, sum: new(groupSummary)})
		}
		for k, e := range s.seg.val {
			all = append(all, kv{k: k, seg: &e})
		}
		for k := range s.seg.none {
			all = append(all, kv{k: k, seg: new(segmentSummary)})
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(a, b int) bool {
		ka, kb := all[a].k, all[b].k
		if ka.Arch != kb.Arch {
			return ka.Arch < kb.Arch
		}
		if ka.Graph != kb.Graph {
			return ka.Graph < kb.Graph
		}
		if ka.FP != kb.FP {
			return ka.FP < kb.FP
		}
		return all[a].sum != nil && all[b].sum == nil // one key, both kinds: summary first
	})

	if err := atomicfile.Write(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		if err := enc.Encode(diskHeader{Kind: diskKind, Version: diskVersion}); err != nil {
			return err
		}
		for _, e := range all {
			de := diskEntry{
				Arch:    fmt.Sprintf("%016x", e.k.Arch),
				Graph:   fmt.Sprintf("%016x", e.k.Graph),
				FP:      fmt.Sprintf("%016x", e.k.FP),
				Summary: e.sum,
				Segment: e.seg,
			}
			if err := enc.Encode(de); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return fmt.Errorf("eval: cache save: %w", err)
	}
	return nil
}

// LoadDisk merges a previously spilled cache file into the cache and
// reports how many entries it added. A missing file is a cold start, not an
// error. Corruption is tolerated at entry granularity: undecodable lines
// (and anything past a truncation point) are skipped, a header from an
// other version or kind skips the whole file, and in every such case the
// cache simply stays colder — LoadDisk errors only on real I/O failure.
// Entries already present in memory are kept (they are bit-identical by key
// determinism).
func (c *Cache) LoadDisk(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("eval: cache load: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return 0, nil // empty or truncated-to-nothing: cold
	}
	var hdr diskHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil ||
		hdr.Kind != diskKind || hdr.Version != diskVersion {
		return 0, nil // foreign or future file: cold, never an error
	}

	loaded := 0
	for sc.Scan() {
		var de diskEntry
		if err := json.Unmarshal(sc.Bytes(), &de); err != nil {
			continue // damaged line: skip just this entry
		}
		var k CacheKey
		var errA, errG, errF error
		k.Arch, errA = strconv.ParseUint(de.Arch, 16, 64)
		k.Graph, errG = strconv.ParseUint(de.Graph, 16, 64)
		k.FP, errF = strconv.ParseUint(de.FP, 16, 64)
		if errA != nil || errG != nil || errF != nil || (de.Summary == nil) == (de.Segment == nil) {
			continue
		}
		s := c.shard(k)
		var stored bool
		if de.Summary != nil {
			stored = store(c, s, &s.m, k, *de.Summary, false)
		} else {
			stored = store(c, s, &s.seg, k, *de.Segment, false)
		}
		if stored {
			loaded++
		}
	}
	// A scanner error (oversized or unterminated line) means a damaged
	// tail; everything before it already merged, so degrade, don't fail.
	return loaded, nil
}
