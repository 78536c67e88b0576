// Session: the long-lived DSE sweep layer. A Session owns a cross-candidate
// shared evaluation cache, a pool of warm per-architecture evaluators and
// the graph partitions computed on them, and a checkpoint of completed
// (candidate, model) cells, so repeated or overlapping sweeps (the
// experiments figures, a resumed CLI run, chiplet-reuse factors revisiting a
// base) reuse each other's partitions, intra-core explorations and settled
// cells. Stripe-segment summaries live only as long as a running sweep may
// ask for them: each cell holds its segment group, and a group's entries
// leave the cache when its last hold is released.

package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// Session shares evaluation state across DSE runs. All methods are safe for
// concurrent use: the sweep service runs several Run/RunContext sweeps on
// one session at once so they share the evaluation cache and checkpoint
// cells (each sweep gets its own scheduler, incumbent and SweepStats). What
// outlives a sweep is its cells, the warm evaluators' partitions and the
// cache's Explore memo and route tables; its segment summaries leave the
// cache with the last cell of their group (see Hold), so a later sweep that
// re-runs the DP on the same candidates — under new objective exponents, say
// — recomputes them. The zero value is not usable — construct with
// NewSession.
type Session struct {
	// Logf, when set, receives scheduling decisions that must not be silent
	// (candidate pruning, checkpoint skips). log.Printf fits.
	Logf func(format string, args ...any)

	cache *eval.Cache

	evalMu sync.Mutex
	evals  map[uint64]*warmArch

	cellMu sync.Mutex
	cells  map[string]cellRecord

	// holds counts, per segment group, the unsettled cells of running sweeps
	// and MapModel calls and the grids Hold pins; a group leaves the map,
	// and its entries the cache, when its count falls to 0.
	holdMu sync.Mutex
	holds  map[eval.SegmentGroup]int

	resumed atomic.Int64 // cells served from the checkpoint instead of mapped

	// mapModel is the per-cell mapping pipeline, mapModelEval outside tests.
	// Tests replace it on the session they build, before its first sweep, to
	// inject infrastructure failures and count calls.
	mapModel func(c *cellRun, cfg *arch.Config, g *dnn.Graph, m Mapping, stop func() bool) (*MapResult, error)
}

// NewSession returns an empty session with a fresh shared cache.
func NewSession() *Session {
	return &Session{
		cache:    eval.NewCache(),
		evals:    make(map[uint64]*warmArch),
		cells:    make(map[string]cellRecord),
		holds:    make(map[eval.SegmentGroup]int),
		mapModel: mapModelEval,
	}
}

// cacheFileName is the spill file a cache directory holds.
const cacheFileName = "evalcache.ndjson"

// CachePath returns the spill file path for a cache directory: the file
// WarmDiskCache reads and the benchmark harness's disk probe writes with
// eval.Cache.SaveDisk. No front end spills its cache; cells survive a
// restart through the checkpoint.
func CachePath(dir string) string { return filepath.Join(dir, cacheFileName) }

// WarmDiskCache merges the cache directory's spill file into the session's
// shared evaluation cache and reports how many entries it added; entries
// the session already holds are kept, so a second warm from the same file
// adds nothing. A missing or damaged file degrades to a cold cache and is
// never an error (per-entry corruption tolerance lives in
// eval.Cache.LoadDisk); only real I/O failures surface.
func (s *Session) WarmDiskCache(dir string) (int, error) {
	n, err := s.cache.LoadDisk(CachePath(dir))
	if n > 0 {
		s.logf("dse: warmed %d cached group evaluations from %s", n, CachePath(dir))
	}
	return n, err
}

// ResumedCells reports how many cells were served from the checkpoint
// instead of being mapped, across the session's lifetime.
func (s *Session) ResumedCells() int64 { return s.resumed.Load() }

// CacheStats reports the shared evaluation cache's accounting.
func (s *Session) CacheStats() eval.CacheStats { return s.cache.Stats() }

// segmentGroup names the cache's segment group of one (candidate, model)
// cell: the entries the cell's partition asks for.
func segmentGroup(cfg *arch.Config, g *dnn.Graph) eval.SegmentGroup {
	return eval.SegmentGroup{Arch: eval.SegmentFingerprint(cfg), Graph: g.Fingerprint()}
}

// cellGroups returns the segment group of every cell of cands × models,
// candidate-major.
func cellGroups(cands []arch.Config, models []*dnn.Graph) []eval.SegmentGroup {
	groups := make([]eval.SegmentGroup, 0, len(cands)*len(models))
	for ci := range cands {
		for _, g := range models {
			groups = append(groups, segmentGroup(&cands[ci], g))
		}
	}
	return groups
}

// Hold pins the segment groups of cands × models in the session's cache, as
// a running sweep of that grid pins them, until release is called; release is
// idempotent. A fleet worker holds each shard's grid until it has its next
// lease, so the next run of a split group finds the entries the last one
// stored.
func (s *Session) Hold(cands []arch.Config, models []*dnn.Graph) (release func()) {
	groups := cellGroups(cands, models)
	s.addHolds(1, groups)
	var once sync.Once
	return func() { once.Do(func() { s.addHolds(-1, groups) }) }
}

// addHolds adds delta to each group's hold count, dropping the entries of a
// group whose count falls to 0. The drop happens under holdMu, so a hold
// taken after it sees an empty group, never one a late drop empties.
func (s *Session) addHolds(delta int, groups []eval.SegmentGroup) {
	s.holdMu.Lock()
	defer s.holdMu.Unlock()
	for _, sg := range groups {
		if n := s.holds[sg] + delta; n > 0 {
			s.holds[sg] = n
			continue
		}
		delete(s.holds, sg)
		s.cache.DropGroup(sg)
	}
}

// heldGroups reports how many segment groups the session holds.
func (s *Session) heldGroups() int {
	s.holdMu.Lock()
	defer s.holdMu.Unlock()
	return len(s.holds)
}

// CheckpointCells reports how many completed (candidate, model) cells the
// session holds (computed this run or loaded from a checkpoint).
func (s *Session) CheckpointCells() int {
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	return len(s.cells)
}

// SettledCells reports how many of one specific sweep's (candidate, model)
// cells are already settled in the session — the number a run of that
// sweep would restore instead of recompute. Unlike CheckpointCells it is
// scoped to the given grid and options, so a shared session's unrelated
// cells do not inflate it.
func (s *Session) SettledCells(cands []arch.Config, models []*dnn.Graph, opt Options) int {
	return len(s.gridCells(cands, models, opt))
}

// SaveCells writes the settled cells of one grid — cands × models under
// opt's Mapping, the cells SettledCells counts — in SaveCheckpoint's format,
// so LoadCheckpoint merges it like any checkpoint.
func (s *Session) SaveCells(w io.Writer, cands []arch.Config, models []*dnn.Graph, opt Options) error {
	return writeCheckpoint(w, s.gridCells(cands, models, opt))
}

// gridCells is the one definition of a grid's cells: the session's settled
// cells among cands × models under opt's Mapping, by checkpoint key.
func (s *Session) gridCells(cands []arch.Config, models []*dnn.Graph, opt Options) map[string]cellRecord {
	optFP := optsFingerprint(opt.Mapping)
	out := make(map[string]cellRecord)
	for ci := range cands {
		fp := eval.ConfigFingerprint(&cands[ci])
		for _, g := range models {
			key := cellKey(fp, g.Name, optFP)
			if rec, ok := s.peekCell(key); ok {
				out[key] = rec
			}
		}
	}
	return out
}

func (s *Session) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// evalPoolLimit bounds the warm-evaluator pool. Each evaluator holds its
// link graph, scratch pools and partition memo, so retaining one per
// candidate of a full Table I grid (thousands) would pin significant
// memory for the session's lifetime. A full pool is flushed wholesale,
// like the cache shards, partition memos included: dropping warmth only
// costs recomputation, and the shared group cache with its route tables and
// Explore memo (which carry the cross-candidate reuse) survive the flush.
const evalPoolLimit = 256

// evaluator returns the session's pool entry for an architecture — its
// warm evaluator and partition memo — creating it (link graph, binding to
// the shared cache, its route tables and intra-core memo) on first use. Keyed by structural
// fingerprint, so a chiplet-reuse factor-1 candidate or a re-enumerated
// identical tuple reuses the same entry.
func (s *Session) evaluator(cfg *arch.Config) *warmArch {
	fp := eval.ConfigFingerprint(cfg)
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	if w, ok := s.evals[fp]; ok {
		return w
	}
	if len(s.evals) >= evalPoolLimit {
		clear(s.evals)
	}
	w := newWarmArch(eval.NewWithCache(cfg, s.cache))
	s.evals[fp] = w
	return w
}

// MapModel maps one model on one architecture through the session's warm
// evaluator and checkpoint cells. It runs under the cell's panic isolation,
// so a panicking pipeline surfaces as a CellError instead of unwinding the
// caller. The cell holds its segment group while it runs, as a sweep's cell
// does.
func (s *Session) MapModel(cfg *arch.Config, g *dnn.Graph, opt Options) (*MapResult, error) {
	key := cellKey(eval.ConfigFingerprint(cfg), g.Name, optsFingerprint(opt.Mapping))
	group := []eval.SegmentGroup{segmentGroup(cfg, g)}
	s.addHolds(1, group)
	defer s.addHolds(-1, group)
	out := s.runCell(cfg, g, opt.Mapping, key, nil)
	return out.mr, out.err
}

// Run explores every candidate over the session's shared cache and returns
// results sorted by resultLess (feasible by ascending objective first, then
// pruned, infeasible and errored candidates). Completed cells are recorded
// for SaveCheckpoint; cells already present (from a previous run or a
// loaded checkpoint) are restored instead of recomputed.
func (s *Session) Run(cands []arch.Config, models []*dnn.Graph, opt Options) []CandidateResult {
	results, _, _ := s.RunContext(context.Background(), cands, models, opt)
	return results
}

// RunContext is Run with cancellation and per-sweep stats. When ctx is
// canceled mid-sweep the remaining (candidate, model) cells fail fast with
// an error wrapping ctx.Err() (in-flight SA portfolios abandon between
// restarts and mid-anneal), already-settled cells stay checkpointed, and the
// partial results are returned together with a non-nil error — so a canceled
// sweep can be checkpointed and resumed without recomputing its completed
// cells.
// The returned SweepStats belongs to this sweep alone, however many sweeps
// share the session.
func (s *Session) RunContext(ctx context.Context, cands []arch.Config, models []*dnn.Graph, opt Options) ([]CandidateResult, SweepStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := s.newScheduler(ctx, cands, models, opt)
	results := sc.run()
	sortResults(results)
	if err := ctx.Err(); err != nil {
		return results, sc.stats, fmt.Errorf("dse: sweep %s canceled: %w", sweepName(opt.SweepID), err)
	}
	return results, sc.stats, nil
}

// sweepName renders a sweep id for log and error text.
func sweepName(id string) string {
	if id == "" {
		return "(unnamed)"
	}
	return id
}

// runCell executes (or restores) one (candidate, model) mapping cell, named
// by the caller-computed key (the scheduler already built it for its
// checkpoint peek). stop, when non-nil, is the scheduler's live-incumbent
// gate polled between SA restarts; an abandoned portfolio is not a settled
// outcome, so it is returned flagged and never stored.
//
// A cell is one attempt under one recover: the mapping pipeline is a pure,
// seeded function of its inputs, so there is nothing a second attempt could
// change. A panic anywhere in it — graph partition, any SA restart, the
// evaluator — unwinds to the recover here and becomes a CellError carrying
// the stack; the cell fails, the process and the sweep do not, and the
// errored cell is never checkpointed.
func (s *Session) runCell(cfg *arch.Config, g *dnn.Graph, m Mapping, key string, stop func() bool) (out pairOutcome) {
	if rec, ok := s.peekCell(key); ok {
		s.resumed.Add(1)
		p := rec.outcome()
		p.restored = true
		return p
	}
	defer func() {
		if v := recover(); v != nil {
			out = pairOutcome{err: &CellError{
				Candidate: cfg.Name, Model: g.Name,
				Stack: string(debug.Stack()), Err: fmt.Errorf("%v", v),
			}}
		}
	}()
	c := &cellRun{warmArch: s.evaluator(cfg)}
	mr, err := s.mapModel(c, cfg, g, m, stop)
	out.partitionReused = c.partitionReused
	var ab *abandonedError
	if errors.As(err, &ab) {
		out.abandoned, out.abandonedRestarts, out.saIterations = true, ab.planned-ab.done, ab.iters
		return out
	}
	if mr != nil {
		out.saIterations = mr.SAIterations
	}
	s.storeCell(key, g.Name, mr, err)
	out.mr, out.err = mr, err
	return out
}

// JointRun explores chiplet reuse over the session: each base candidate's
// chiplet is replicated to build accelerators at every factor in factors
// (1 = the base itself), and candidates are ranked by the product of their
// objectives (paper Sec. VII-B "Joint Optimal"). Bound pruning is
// force-disabled: the product ranking needs every (base, factor) cell
// evaluated, and a per-candidate incumbent is not a sound bound for a
// product-of-objectives ranking.
func (s *Session) JointRun(bases []arch.Config, factors []int, models []*dnn.Graph, opt Options) []JointResult {
	opt.Prune = false
	opt.OnResult = nil

	// Flatten every (base, factor) that scales into one candidate list.
	flatIdx := make([][]int, len(bases))
	var flat []arch.Config
	for bi := range bases {
		flatIdx[bi] = make([]int, 0, len(factors))
		for _, f := range factors {
			scaled, err := ScaleUp(bases[bi], f)
			if err != nil {
				flatIdx[bi] = append(flatIdx[bi], -1)
				break
			}
			flatIdx[bi] = append(flatIdx[bi], len(flat))
			flat = append(flat, scaled)
		}
	}

	// One result per flattened candidate, in candidate order (unsorted).
	crs := s.newScheduler(context.Background(), flat, models, opt).run()

	out := make([]JointResult, 0, len(bases))
	for bi := range bases {
		jr := JointResult{Base: bases[bi], Feasible: true, Product: 1}
		for _, k := range flatIdx[bi] {
			if k < 0 {
				jr.Feasible = false
				break
			}
			jr.Scaled = append(jr.Scaled, crs[k])
			if !crs[k].Feasible {
				jr.Feasible = false
				break
			}
			jr.Product *= crs[k].Obj
		}
		if !jr.Feasible {
			jr.Product = math.Inf(1)
		}
		out = append(out, jr)
	}
	sort.Slice(out, func(a, b int) bool {
		pa, pb := out[a].Product, out[b].Product
		if pa != pb && !math.IsNaN(pa) && !math.IsNaN(pb) {
			return pa < pb
		}
		if math.IsNaN(pa) != math.IsNaN(pb) {
			return !math.IsNaN(pa)
		}
		return out[a].Base.Name < out[b].Base.Name
	})
	return out
}

// --- checkpointing -------------------------------------------------------

// cellRecord is the serialized outcome of one completed (candidate, model)
// cell. Float64 fields survive the JSON round trip bit-exactly (Go encodes
// the shortest representation that parses back to the same value). Only
// settled outcomes are recorded — a feasible mapping or honest
// infeasibility; infrastructure errors are never checkpointed, so a
// resumed sweep (on a fixed binary, say) recomputes them instead of
// replaying the failure forever.
type cellRecord struct {
	Model    string `json:"model"`
	Feasible bool   `json:"feasible"`

	Energy            float64 `json:"energy,omitempty"`
	Delay             float64 `json:"delay,omitempty"`
	Groups            int     `json:"groups,omitempty"`
	AvgLayersPerGroup float64 `json:"avg_layers_per_group,omitempty"`
	DRAMBytes         float64 `json:"dram_bytes,omitempty"`

	EMAC  float64 `json:"e_mac,omitempty"`
	EGLB  float64 `json:"e_glb,omitempty"`
	ENoC  float64 `json:"e_noc,omitempty"`
	ED2D  float64 `json:"e_d2d,omitempty"`
	EDRAM float64 `json:"e_dram,omitempty"`

	SACost      float64 `json:"sa_cost,omitempty"`
	SAInitCost  float64 `json:"sa_init_cost,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`
	BestRestart int     `json:"best_restart,omitempty"`
}

// outcome reconstructs the cell as a pairOutcome. Feasible cells come back
// as summary MapResults: exact energies/delays/statistics, but without
// per-group evaluation detail or the SA scheme.
func (r cellRecord) outcome() pairOutcome {
	if !r.Feasible {
		return pairOutcome{err: fmt.Errorf("%w for %s (checkpointed)", ErrInfeasible, r.Model)}
	}
	bd := eval.EnergyBreakdown{MAC: r.EMAC, GLB: r.EGLB, NoC: r.ENoC, D2D: r.ED2D, DRAM: r.EDRAM}
	mr := &MapResult{
		Model:             r.Model,
		Energy:            r.Energy,
		Delay:             r.Delay,
		Groups:            r.Groups,
		AvgLayersPerGroup: r.AvgLayersPerGroup,
		Restarts:          r.Restarts,
		BestRestart:       r.BestRestart,
		Summary:           true,
	}
	mr.Eval = eval.Result{Feasible: true, Delay: r.Delay, Energy: bd, DRAMBytes: r.DRAMBytes}
	mr.SA.Cost = r.SACost
	mr.SA.InitCost = r.SAInitCost
	mr.SA.Eval = mr.Eval
	return mr.asOutcome()
}

func (m *MapResult) asOutcome() pairOutcome { return pairOutcome{mr: m} }

// peekCell reads a checkpoint cell without counting it as resumed; the
// scheduler uses it to seed the pruning incumbent before dispatch.
func (s *Session) peekCell(key string) (cellRecord, bool) {
	s.cellMu.Lock()
	rec, ok := s.cells[key]
	s.cellMu.Unlock()
	return rec, ok
}

// storeCell records a settled cell.
func (s *Session) storeCell(key, model string, mr *MapResult, err error) {
	rec := cellRecord{Model: model}
	switch {
	case mr != nil:
		rec.Feasible = true
		rec.Energy = mr.Energy
		rec.Delay = mr.Delay
		rec.Groups = mr.Groups
		rec.AvgLayersPerGroup = mr.AvgLayersPerGroup
		rec.DRAMBytes = mr.Eval.DRAMBytes
		rec.EMAC, rec.EGLB = mr.Eval.Energy.MAC, mr.Eval.Energy.GLB
		rec.ENoC, rec.ED2D, rec.EDRAM = mr.Eval.Energy.NoC, mr.Eval.Energy.D2D, mr.Eval.Energy.DRAM
		rec.SACost, rec.SAInitCost = mr.SA.Cost, mr.SA.InitCost
		rec.Restarts, rec.BestRestart = mr.Restarts, mr.BestRestart
	case err != nil && !errors.Is(err, ErrInfeasible):
		// Infrastructure errors are not settled outcomes: leave the cell
		// unrecorded so a resumed or repeated sweep recomputes it.
		return
	}
	s.cellMu.Lock()
	s.cells[key] = rec
	s.cellMu.Unlock()
}

// checkpointFile is the JSON checkpoint envelope.
type checkpointFile struct {
	Version int                   `json:"version"`
	Cells   map[string]cellRecord `json:"cells"`
}

const checkpointVersion = 1

// SaveCheckpoint writes the session's completed cells as JSON. Keys are
// emitted in sorted order, so identical sessions produce identical bytes.
func (s *Session) SaveCheckpoint(w io.Writer) error {
	s.cellMu.Lock()
	cells := maps.Clone(s.cells)
	s.cellMu.Unlock()
	return writeCheckpoint(w, cells)
}

// writeCheckpoint encodes cells as a version-1 checkpoint; encoding/json
// sorts the keys, so equal cell sets give equal bytes.
func writeCheckpoint(w io.Writer, cells map[string]cellRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(checkpointFile{Version: checkpointVersion, Cells: cells})
}

// LoadCheckpoint merges a previously saved checkpoint into the session;
// matching cells in subsequent runs are restored instead of recomputed.
// Cells keyed under different mapping options (batch, iterations, seeds,
// restarts, objective exponents) never collide, so one checkpoint file can
// serve several sweep configurations.
func (s *Session) LoadCheckpoint(r io.Reader) error {
	var cp checkpointFile
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("dse: reading checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("dse: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	s.cellMu.Lock()
	for k, v := range cp.Cells {
		s.cells[k] = v
	}
	s.cellMu.Unlock()
	return nil
}

// ErrCorruptCheckpoint marks a checkpoint file LoadCheckpointFile could
// open but not merge.
var ErrCorruptCheckpoint = errors.New("dse: corrupt checkpoint")

// LoadCheckpointFile merges the checkpoint file at path into the session. A
// failed open returns os.Open's error unwrapped, so a caller can test
// fs.ErrNotExist. A file that does not decode is quarantined: renamed to
// <path>.corrupt, keeping the damaged bytes for diagnosis, and reported
// with an error wrapping ErrCorruptCheckpoint and the decode error.
func (s *Session) LoadCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	lerr := s.LoadCheckpoint(f)
	f.Close()
	if lerr == nil {
		return nil
	}
	quarantine := path + ".corrupt"
	if rerr := os.Rename(path, quarantine); rerr != nil {
		return fmt.Errorf("%w, and quarantine failed (%v): %w", ErrCorruptCheckpoint, rerr, lerr)
	}
	return fmt.Errorf("%w, quarantined to %s: %w", ErrCorruptCheckpoint, quarantine, lerr)
}

// --- cell keying ---------------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// optsFingerprint hashes a Mapping into the options part of a cell key.
// Alpha is left out on purpose: it only ranks candidates and never changes a
// (candidate, model) mapping, so checkpoints survive re-ranking sweeps. Every
// other field is hashed; TestMappingKeyCoversEveryField holds both to it.
func optsFingerprint(m Mapping) uint64 {
	restarts := m.Restarts
	if restarts < 1 {
		restarts = 1
	}
	h := uint64(fnvOffset64)
	for _, v := range [...]uint64{
		uint64(int64(m.Batch)), uint64(int64(m.SAIterations)),
		uint64(int64(restarts)), uint64(m.Seed),
		math.Float64bits(m.Objective.Beta), math.Float64bits(m.Objective.Gamma),
		uint64(int64(m.MaxGroupLayers)),
	} {
		h = fnvWord(h, v)
	}
	for _, bu := range m.BatchUnits {
		h = fnvWord(h, uint64(int64(bu)))
	}
	return h
}

// cellKey names one (candidate, model, options) cell in the checkpoint.
func cellKey(archFP uint64, model string, optFP uint64) string {
	return fmt.Sprintf("%016x/%s/%016x", archFP, model, optFP)
}
