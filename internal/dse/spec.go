// Sweep specs: the transport-level description of one DSE sweep. A Spec is
// what an HTTP client POSTs to the sweep service (internal/serve) and what
// the CLI could read from a file: it names a Table I candidate space (with
// optional list overrides for small or custom grids), a workload list, and
// the mapping options, all as plain JSON. Spec.Options, Spec.Candidates and
// Spec.Graphs resolve it into the in-memory types Session.RunContext
// consumes, so every front end shares one validation and defaulting path.
package dse

import (
	"fmt"
	"regexp"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// SpaceSpec selects an architecture candidate space in JSON form: a Table I
// base grid by TOPs, optionally reduced, with any of the per-dimension
// candidate lists overridden. Overrides make tiny smoke grids (one MAC
// count, one NoC bandwidth) and custom studies expressible without new
// code; an override replaces the base list wholesale.
type SpaceSpec struct {
	// TOPS selects the Table I base space: 72, 128 or 512.
	TOPS int `json:"tops"`
	// Reduced starts from the coarse representative sub-grid (Space.Reduced)
	// instead of the full Table I grid.
	Reduced bool `json:"reduced,omitempty"`

	// Cuts overrides the candidate XCut/YCut list.
	Cuts []int `json:"cuts,omitempty"`
	// DRAMPerTOPS overrides the DRAM GB/s-per-TOPs list.
	DRAMPerTOPS []float64 `json:"dram_per_tops,omitempty"`
	// NoCBWs overrides the NoC bandwidth (GB/s) list.
	NoCBWs []float64 `json:"noc_gbps,omitempty"`
	// D2DRatios overrides the D2D/NoC bandwidth ratio list.
	D2DRatios []float64 `json:"d2d_ratios,omitempty"`
	// GLBsKB overrides the per-core global-buffer list, in KB.
	GLBsKB []int `json:"glb_kb,omitempty"`
	// MACs overrides the MACs-per-core list.
	MACs []int `json:"macs,omitempty"`
}

// Space resolves the spec into a concrete candidate space.
func (sp SpaceSpec) Space() (Space, error) {
	var base Space
	switch sp.TOPS {
	case 72:
		base = Space72()
	case 128:
		base = Space128()
	case 512:
		base = Space512()
	default:
		return Space{}, fmt.Errorf("dse: unsupported space tops %d (want 72, 128 or 512)", sp.TOPS)
	}
	if sp.Reduced {
		base = base.Reduced()
	}
	if len(sp.Cuts) > 0 {
		base.Cuts = sp.Cuts
	}
	if len(sp.DRAMPerTOPS) > 0 {
		base.DRAMPerTOPS = sp.DRAMPerTOPS
	}
	if len(sp.NoCBWs) > 0 {
		base.NoCBWs = sp.NoCBWs
	}
	if len(sp.D2DRatios) > 0 {
		base.D2DRatios = sp.D2DRatios
	}
	if len(sp.GLBsKB) > 0 {
		glbs := make([]int, len(sp.GLBsKB))
		for i, kb := range sp.GLBsKB {
			if kb <= 0 {
				return Space{}, fmt.Errorf("dse: glb_kb[%d] = %d, want > 0", i, kb)
			}
			glbs[i] = kb * arch.KB
		}
		base.GLBs = glbs
	}
	if len(sp.MACs) > 0 {
		base.MACs = sp.MACs
	}
	return base, nil
}

// ObjectiveSpec is the JSON form of the MC^alpha * E^beta * D^gamma
// exponents. A nil *ObjectiveSpec in a Spec means the paper default MC*E*D.
type ObjectiveSpec struct {
	// Alpha is the monetary-cost exponent.
	Alpha float64 `json:"alpha"`
	// Beta is the energy exponent.
	Beta float64 `json:"beta"`
	// Gamma is the delay exponent.
	Gamma float64 `json:"gamma"`
}

// Spec is one sweep request in JSON form. Zero-valued optional fields take
// the DefaultOptions defaults, so the minimal useful spec is just a space
// and a model list. Validate checks the whole spec; Options, Candidates and
// Graphs resolve it (they assume a validated spec).
type Spec struct {
	// ID optionally names the sweep. The sweep service uses it to key
	// server-side checkpoints, so a client that re-POSTs a spec under the
	// same ID resumes instead of recomputing; empty means the server
	// assigns a fresh ID.
	ID string `json:"id,omitempty"`
	// Tenant names the submitting tenant for the sweep service's admission
	// control and fair-share dispatch; empty means the default tenant. The
	// mapping engine itself ignores it — which tenant paid for a cell can
	// never change the cell's bits.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the sweep's scheduling class at the sweep service:
	// "interactive" (the default) dispatches ahead of "batch", and only
	// batch sweeps are preemptible. Like Tenant it never reaches the
	// mapping engine.
	Priority string `json:"priority,omitempty"`
	// Space selects the candidate grid.
	Space SpaceSpec `json:"space"`
	// Models lists the workloads (dnn.Model names) mapped on every
	// candidate.
	Models []string `json:"models"`

	// Batch is the inference batch size (default 64, the paper's
	// throughput scenario).
	Batch int `json:"batch,omitempty"`
	// SAIterations is the annealing length per (candidate, model) mapping.
	// 0 means the default, 600, so a spec always anneals: POST /sweep and
	// the fleet cannot ask for a stripe-only (T-Map) sweep, and
	// gemini-dse -sa 0 is the way to run one.
	SAIterations int `json:"sa_iterations,omitempty"`
	// Restarts is the SA portfolio width per cell (default 1).
	Restarts int `json:"restarts,omitempty"`
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Seed is the base SA seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxGroupLayers forwards to the graph partitioner (0 = default).
	MaxGroupLayers int `json:"max_group_layers,omitempty"`
	// BatchUnits forwards the partitioner's batch-unit candidates
	// (default 1,2,4,8).
	BatchUnits []int `json:"batch_units,omitempty"`
	// Objective overrides the ranking exponents (nil = MC*E*D).
	Objective *ObjectiveSpec `json:"objective,omitempty"`
	// Prune enables bound-based candidate pruning.
	Prune bool `json:"prune,omitempty"`
}

// SweepPriority is a sweep's scheduling class at the sweep service.
type SweepPriority string

const (
	// PriorityInteractive is the default class: interactive sweeps dispatch
	// ahead of batch sweeps and are never preempted.
	PriorityInteractive SweepPriority = "interactive"
	// PriorityBatch marks throughput work: batch sweeps yield dispatch
	// priority to interactive ones and may be preempted (checkpointed and
	// later resumed) when an interactive sweep needs their worker slots.
	PriorityBatch SweepPriority = "batch"
)

// NamePattern is the accepted shape of tenant names, sweep ids and fleet
// sweep ids: short, path- and filename-safe.
var NamePattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// maxSpecGrid bounds the raw cross product of a spec's dimension lists
// before cut-divisibility filtering. The full Table I grids sit around
// 2x10^4 combinations; anything past a million is a malformed or hostile
// spec, not an experiment.
const maxSpecGrid = 1 << 20

// Validate checks the spec without enumerating the space: space selection,
// model names, priority keyword and numeric ranges. It returns the first
// problem found, phrased for an API client.
func (s *Spec) Validate() error {
	sp, err := s.Space.Space()
	if err != nil {
		return err
	}
	// Cap the dimension-list cross product before anything enumerates it:
	// Candidates() materializes the grid, and a hostile spec could otherwise
	// request an absurd one. Cuts counts twice (XCut x YCut); the product is
	// compared with overflow-safe division, never computed past the cap.
	grid := 1
	for _, n := range [...]int{
		len(sp.Cuts), len(sp.Cuts), len(sp.DRAMPerTOPS),
		len(sp.NoCBWs), len(sp.D2DRatios), len(sp.GLBs), len(sp.MACs),
	} {
		if n == 0 {
			continue
		}
		if grid > maxSpecGrid/n {
			return fmt.Errorf("dse: spec space exceeds %d raw grid combinations", maxSpecGrid)
		}
		grid *= n
	}
	if s.Tenant != "" && !NamePattern.MatchString(s.Tenant) {
		return fmt.Errorf("dse: spec tenant %q: want %s", s.Tenant, NamePattern)
	}
	switch SweepPriority(s.Priority) {
	case "", PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("dse: unsupported priority %q (want %q or %q)",
			s.Priority, PriorityInteractive, PriorityBatch)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("dse: spec has no models (have %v)", dnn.ModelNames())
	}
	for _, name := range s.Models {
		// Membership check only: building the graphs is deferred to
		// Graphs(), so rejecting a bad spec costs nothing.
		if !dnn.HasModel(name) {
			return fmt.Errorf("dse: unknown model %q (have %v)", name, dnn.ModelNames())
		}
	}
	for _, c := range [...]struct {
		name string
		v    int
	}{
		{"batch", s.Batch}, {"sa_iterations", s.SAIterations}, {"restarts", s.Restarts},
		{"workers", s.Workers}, {"max_group_layers", s.MaxGroupLayers},
	} {
		if c.v < 0 {
			return fmt.Errorf("dse: spec %s = %d, want >= 0", c.name, c.v)
		}
	}
	if s.Seed < 0 {
		return fmt.Errorf("dse: spec seed = %d, want >= 0", s.Seed)
	}
	for i, bu := range s.BatchUnits {
		if bu <= 0 {
			return fmt.Errorf("dse: spec batch_units[%d] = %d, want > 0", i, bu)
		}
	}
	if o := s.Objective; o != nil && (o.Alpha < 0 || o.Beta < 0 || o.Gamma < 0) {
		// Negative exponents silently disable pruning and produce
		// non-monotone rankings; reject them at the API boundary rather
		// than surprise a service client.
		return fmt.Errorf("dse: spec objective exponents must be >= 0, got %+v", *o)
	}
	return nil
}

// Options resolves the spec's mapping options, applying the DefaultOptions
// defaults to zero-valued fields. The spec's ID becomes Options.SweepID.
// Space and Models resolve through Candidates and Graphs, and Tenant and
// Priority stay with the sweep service; every other field lands here
// (TestSpecOptionsConsumesEveryField).
func (s *Spec) Options() Options {
	opt := DefaultOptions()
	opt.SweepID = s.ID
	if s.Batch > 0 {
		opt.Batch = s.Batch
	}
	if s.SAIterations > 0 {
		opt.SAIterations = s.SAIterations
	}
	if s.Restarts > 0 {
		opt.Restarts = s.Restarts
	}
	opt.Workers = s.Workers
	if s.Seed > 0 {
		opt.Seed = s.Seed
	}
	opt.MaxGroupLayers = s.MaxGroupLayers
	if len(s.BatchUnits) > 0 {
		opt.BatchUnits = s.BatchUnits
	}
	if s.Objective != nil {
		opt.Objective = Objective{Alpha: s.Objective.Alpha, Beta: s.Objective.Beta, Gamma: s.Objective.Gamma}
	}
	opt.Prune = s.Prune
	return opt
}

// Candidates enumerates the spec's candidate space. An empty result is an
// error: it means the overrides produced a grid with no buildable
// configuration, and a client should hear about that rather than receive an
// instantly-"complete" sweep.
func (s *Spec) Candidates() ([]arch.Config, error) {
	sp, err := s.Space.Space()
	if err != nil {
		return nil, err
	}
	cands := sp.Enumerate()
	if len(cands) == 0 {
		return nil, fmt.Errorf("dse: space %s enumerates no valid candidates", sp.Name)
	}
	return cands, nil
}

// Graphs builds the spec's workload graphs.
func (s *Spec) Graphs() ([]*dnn.Graph, error) {
	out := make([]*dnn.Graph, 0, len(s.Models))
	for _, name := range s.Models {
		g, err := dnn.Model(name)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}
