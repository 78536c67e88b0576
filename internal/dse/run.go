package dse

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/sa"
)

// ErrInfeasible marks mapping outcomes where the pipeline ran correctly but
// no feasible mapping exists for the (architecture, model) pair. Everything
// else MapModel returns is an infrastructure error — a bad configuration, an
// invalid scheme, a real bug — and must never be reported as infeasibility.
var ErrInfeasible = errors.New("dse: no feasible mapping")

// Objective holds the DSE exponents of MC^alpha * E^beta * D^gamma
// (paper Sec. V-A). The default DSE objective is MC*E*D.
type Objective struct {
	Alpha, Beta, Gamma float64
}

// MCED is the paper's default DSE objective.
var MCED = Objective{1, 1, 1}

// Mapping is what a (candidate, model) cell computes under: a cell's result
// is a function of the candidate, the graph and its Mapping alone, and every
// Mapping field except Objective.Alpha keys the cell in the checkpoint.
type Mapping struct {
	// Objective holds the ranking exponents. Beta and Gamma steer the
	// partitioner and the annealer; Alpha only ranks candidates.
	Objective Objective
	Batch     int
	// SAIterations per (candidate, DNN) mapping search.
	SAIterations int
	// Restarts is the SA portfolio width per (candidate, model) cell:
	// each cell anneals Restarts times with deterministically derived seeds
	// and keeps the best outcome (<=1 means a single run, bit-identical to
	// the pre-portfolio engine).
	Restarts int
	Seed     int64
	// MaxGroupLayers and BatchUnits forward to the graph partitioner.
	MaxGroupLayers int
	BatchUnits     []int
}

// partitionOptions returns the graph-partitioner options a cell runs under:
// the engine defaults with m's objective exponents and, where set, its
// segment-length limit and batch units.
func (m Mapping) partitionOptions() graphpart.Options {
	gp := graphpart.DefaultOptions()
	gp.Beta, gp.Gamma = m.Objective.Beta, m.Objective.Gamma
	if m.MaxGroupLayers > 0 {
		gp.MaxGroupLayers = m.MaxGroupLayers
	}
	if len(m.BatchUnits) > 0 {
		gp.BatchUnits = m.BatchUnits
	}
	return gp
}

// Options configures a DSE run: the Mapping every cell computes under, and
// how the sweep runs. No field outside Mapping can change a computed cell;
// they only schedule, skip, observe or label cells.
type Options struct {
	Mapping
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
	// Prune enables bound-based candidate pruning: a candidate whose
	// MC^alpha * lowerBound(E)^beta * lowerBound(D)^gamma already exceeds
	// the best feasible objective seen so far is skipped without mapping.
	// The bound is sound (it can never prune the true optimum) but which
	// non-winning candidates get pruned depends on completion order, so
	// pruned rows carry Pruned=true rather than silently vanishing. Pruning
	// is disabled when any exponent is negative (the bound is only a bound
	// for monotone objectives). The incumbent is live: it is re-read before
	// every cell and between SA restarts, and it is seeded from checkpointed
	// cells on resumed sessions, so the gate tightens as early as possible.
	// Candidates dispatch in ascending lower-bound order, pruning or not
	// (unless Dispatch replaces it), so the cheap candidates that tighten
	// the incumbent run first.
	Prune bool
	// OnResult, when set, streams each candidate's result as soon as it
	// completes (including pruned and errored candidates). Calls are
	// serialized but arrive in completion order, not candidate order.
	OnResult func(CandidateResult) `json:"-"`
	// Dispatch, when set, replaces the ascending-lower-bound candidate order
	// with a less-function over enumeration indices; tests use it to impose
	// grid order. Every cell of every candidate still runs exactly once.
	Dispatch func(a, b int) bool `json:"-"`
	// SweepID optionally names the sweep in the scheduler's logs. It only
	// labels: a renamed sweep keeps hitting its old cells.
	SweepID string `json:"sweep_id,omitempty"`
	// Incumbent, when set, reads an external pruning incumbent (a fleet
	// worker's cached fleet-wide best): the scheduler's incumbent is
	// min(local best, Incumbent()) wherever it gates work — the pre-cell
	// prune check and the SA stop hook. It is polled on those hot gates, so
	// it must be cheap (an atomic load) and return +Inf while no external
	// incumbent exists. It must only ever return achieved feasible
	// objectives for the same spec, so the fold stays a sound pruning bound
	// (the global optimum can never be dominated by an achieved value). Like
	// Prune it only skips work.
	Incumbent func() float64 `json:"-"`
}

// DefaultOptions returns throughput-scenario settings (batch 64, Sec. VI-A1).
func DefaultOptions() Options {
	return Options{Mapping: Mapping{
		Objective:    MCED,
		Batch:        64,
		SAIterations: 600,
		Restarts:     1,
		Seed:         1,
		BatchUnits:   []int{1, 2, 4, 8},
	}}
}

// MapResult is the outcome of mapping one DNN onto one architecture.
type MapResult struct {
	Model             string
	Energy            float64 // joules
	Delay             float64 // seconds
	Eval              eval.Result
	SA                sa.Result
	Groups            int
	AvgLayersPerGroup float64

	// Restarts and BestRestart describe the SA portfolio that produced this
	// result (1/0 for a single-seed run).
	Restarts    int
	BestRestart int
	// SAIterations is the total annealing iterations attempted across the
	// portfolio (0 for restored cells, which did no search work).
	SAIterations int

	// Summary marks results restored from a session checkpoint: energies,
	// delays and group statistics are exact, but per-group evaluation detail
	// and SA trajectory counters were not serialized.
	Summary bool
}

// abandonedError marks a cell whose SA portfolio the scheduler's live
// incumbent cut off mid-flight — between restarts or mid-anneal. It is
// internal to the sweep machinery: the candidate is reported Pruned, never
// errored, and the partial cell is not checkpointed. iters carries the SA
// iterations the cell burned before walking away, for the scheduler's
// work accounting.
type abandonedError struct{ done, planned, iters int }

func (e *abandonedError) Error() string {
	return fmt.Sprintf("dse: portfolio abandoned by incumbent after %d/%d restarts", e.done, e.planned)
}

// mapModelEval runs the full Mapping Engine pipeline for one DNN on one
// architecture: DP graph partition, then SA refinement of the LP SPM (a
// portfolio of m.Restarts annealing runs). It runs on the session's pool
// entry, so cells reuse warm evaluators (route tables), the shared group
// cache and its intra-core memo, and computed partitions across candidates
// and runs.
// Infeasibility is reported as an error wrapping ErrInfeasible; any other
// error is an infrastructure failure. stop, when non-nil, is polled between
// SA restarts; if it fires, the cell is abandoned with an abandonedError.
func mapModelEval(c *cellRun, cfg *arch.Config, g *dnn.Graph, m Mapping, stop func() bool) (*MapResult, error) {
	part, err := c.partition(cfg, g, m.Batch, m.partitionOptions())
	if err != nil {
		if errors.Is(err, graphpart.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	so := sa.DefaultOptions()
	so.Iterations = m.SAIterations
	so.Seed = m.Seed
	so.Beta, so.Gamma = m.Objective.Beta, m.Objective.Gamma
	// The scheduler's stop gate is polled between restarts and inside the
	// annealing loop, so a cell dominated mid-anneal stops within one stride.
	// Abandoned cells are never settled or checkpointed.
	so.Stop = stop
	// A panicking restart unwinds the whole portfolio to the cell's recover
	// (Session.runCell), so a partial portfolio is never folded.
	pf := sa.MultiStart(part.Scheme, c.ev, so, m.Restarts)
	if pf.Abandoned {
		return nil, &abandonedError{done: len(pf.Costs), planned: pf.Planned, iters: pf.Iterations}
	}
	res := pf.Best
	if !res.Eval.Feasible {
		return nil, fmt.Errorf("%w for %s on %s", ErrInfeasible, g.Name, cfg.Name)
	}
	return &MapResult{
		Model:             g.Name,
		Energy:            res.Eval.Energy.Total(),
		Delay:             res.Eval.Delay,
		Eval:              res.Eval,
		SA:                res,
		Groups:            len(res.Scheme.Groups),
		AvgLayersPerGroup: eval.AvgLayersPerGroup(res.Scheme),
		Restarts:          len(pf.Costs),
		BestRestart:       pf.BestRestart,
		SAIterations:      pf.Iterations,
	}, nil
}

// pairOutcome is one (candidate, model) mapping cell: a result, an
// infeasibility (mr == nil, err wraps ErrInfeasible), or an infrastructure
// error (mr == nil, any other err). The scheduler accounting fields ride
// along: restored cells came from the checkpoint, a partitionReused cell
// took its partition from the session's memo, and an abandoned cell was cut
// off by the live incumbent (no settled outcome at all).
type pairOutcome struct {
	mr  *MapResult
	err error

	restored          bool
	partitionReused   bool
	abandoned         bool
	abandonedRestarts int
	saIterations      int
}

// infeasible reports whether the cell ran correctly but found no mapping.
func (p pairOutcome) infeasible() bool {
	return p.mr == nil && (p.err == nil || errors.Is(p.err, ErrInfeasible))
}

// CandidateResult is one architecture candidate's DSE evaluation.
type CandidateResult struct {
	Cfg      arch.Config
	MC       cost.Breakdown
	Energy   float64 // geometric mean over DNNs (J)
	Delay    float64 // geometric mean over DNNs (s)
	Obj      float64
	Feasible bool
	PerModel []*MapResult

	// Err is non-nil when any model's mapping failed with an infrastructure
	// error (as opposed to being infeasible); such candidates are never
	// reported as merely infeasible.
	Err error
	// Pruned marks candidates skipped by bound-based pruning; LowerBound is
	// the objective bound that justified the skip.
	Pruned     bool
	LowerBound float64
}

// EDP returns the candidate's energy-delay product.
func (c *CandidateResult) EDP() float64 { return c.Energy * c.Delay }

// Status summarizes the candidate outcome: "ok", "infeasible", "pruned" or
// "error".
func (c *CandidateResult) Status() string {
	switch {
	case c.Err != nil:
		return "error"
	case c.Pruned:
		return "pruned"
	case c.Feasible:
		return "ok"
	default:
		return "infeasible"
	}
}

// reduceCandidate folds one candidate's per-model mappings into its DSE
// result (foldModels). A candidate with any errored model is an error; with
// any infeasible model it is infeasible; either way it publishes no
// per-model results.
func reduceCandidate(cfg *arch.Config, per []pairOutcome, models []*dnn.Graph, mce *cost.Evaluator, opt Options) CandidateResult {
	res := CandidateResult{Cfg: *cfg, MC: mce.Evaluate(cfg)}
	var errs []error
	infeasible := false
	for _, p := range per {
		if p.mr == nil {
			if p.infeasible() {
				infeasible = true
			} else {
				errs = append(errs, p.err)
			}
			continue
		}
		res.PerModel = append(res.PerModel, p.mr)
	}
	if len(errs) > 0 {
		res.Err = errors.Join(errs...)
		res.Obj = math.Inf(1)
		res.PerModel = nil
		return res
	}
	if infeasible {
		res.Obj = math.Inf(1)
		res.PerModel = nil
		return res
	}
	if len(models) == 0 {
		res.Obj = math.Inf(1)
		return res
	}
	res.Energy, res.Delay, res.Obj = foldModels(res.MC.Total(), len(models), func(mi int) (e, d float64) {
		return res.PerModel[mi].Energy, res.PerModel[mi].Delay
	}, opt.Objective)
	res.Feasible = true
	return res
}

// foldModels folds a candidate's n > 0 per-model energies and delays, model
// mi's from ed, into its geometric-mean energy and delay and its objective.
// The mean is taken in log space, so tiny per-model values cannot underflow
// a running product, and a zero (math.Log(0) is -Inf) passes through exactly.
func foldModels(mc float64, n int, ed func(mi int) (e, d float64), obj Objective) (e, d, objective float64) {
	var sumLogE, sumLogD float64
	for mi := range n {
		e, d := ed(mi)
		sumLogE += math.Log(e)
		sumLogD += math.Log(d)
	}
	e, d = math.Exp(sumLogE/float64(n)), math.Exp(sumLogD/float64(n))
	return e, d, Score(mc, e, d, obj)
}

// Score computes MC^alpha * E^beta * D^gamma.
func Score(mc, e, d float64, o Objective) float64 {
	return math.Pow(mc, o.Alpha) * math.Pow(e, o.Beta) * math.Pow(d, o.Gamma)
}

// resultClass buckets candidates for ranking: feasible first, then pruned
// (possibly good, just skipped), then genuinely infeasible, then errored.
func resultClass(r *CandidateResult) int {
	switch {
	case r.Feasible:
		return 0
	case r.Pruned:
		return 1
	case r.Err == nil:
		return 2
	default:
		return 3
	}
}

// objRank orders objective values within the feasible class so that the
// comparator stays a strict weak order even for NaN (e.g. a 0*Inf product
// from a zero MC under a negative alpha): finite < +/-Inf-free handled by
// value, +Inf next, NaN last.
func objRank(o float64) int {
	switch {
	case math.IsNaN(o):
		return 2
	case math.IsInf(o, 1):
		return 1
	default:
		return 0
	}
}

// resultLess is the total order Run sorts by: class, then objective (NaN and
// +Inf deterministically last within feasible), then name. It is a valid
// strict weak order for any float inputs, so sort.Slice cannot misbehave on
// NaN objectives.
func resultLess(a, b *CandidateResult) bool {
	ca, cb := resultClass(a), resultClass(b)
	if ca != cb {
		return ca < cb
	}
	if ca == 0 {
		ra, rb := objRank(a.Obj), objRank(b.Obj)
		if ra != rb {
			return ra < rb
		}
		if ra == 0 && a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
	}
	return a.Cfg.Name < b.Cfg.Name
}

// sortResults orders a result slice by resultLess.
func sortResults(results []CandidateResult) {
	sort.Slice(results, func(a, b int) bool {
		return resultLess(&results[a], &results[b])
	})
}

// Best returns the first feasible result, or nil.
func Best(results []CandidateResult) *CandidateResult {
	for i := range results {
		if results[i].Feasible {
			return &results[i]
		}
	}
	return nil
}

// Errors collects the infrastructure errors of a sweep, one per errored
// candidate, prefixed with the candidate name. An empty slice means every
// cell either mapped or was honestly infeasible/pruned.
func Errors(results []CandidateResult) []error {
	var out []error
	for i := range results {
		if results[i].Err != nil {
			out = append(out, fmt.Errorf("%s: %w", results[i].Cfg.Name, results[i].Err))
		}
	}
	return out
}

// WriteCSV emits the result table in the artifact's result.csv style, plus
// the status ("ok", "infeasible", "pruned", "error") and error message of
// each candidate so failed sweeps are never silently mistaken for clean
// infeasibility.
func WriteCSV(w io.Writer, results []CandidateResult) error {
	if _, err := fmt.Fprintln(w, "arch,chiplets,cores,dram_gbps,noc_gbps,d2d_gbps,glb_kb,macs,mc_usd,energy_j,delay_s,edp,objective,feasible,status,error"); err != nil {
		return err
	}
	for i := range results {
		r := &results[i]
		msg := ""
		if r.Err != nil {
			msg = r.Err.Error()
		}
		_, err := fmt.Fprintf(w, "%q,%d,%d,%.0f,%.0f,%.0f,%d,%d,%.3f,%.6g,%.6g,%.6g,%.6g,%t,%s,%q\n",
			r.Cfg.Name, r.Cfg.Chiplets(), r.Cfg.Cores(), r.Cfg.DRAMBW, r.Cfg.NoCBW, r.Cfg.D2DBW,
			r.Cfg.GLBPerCore/arch.KB, r.Cfg.MACsPerCore,
			r.MC.Total(), r.Energy, r.Delay, r.EDP(), r.Obj, r.Feasible, r.Status(), msg)
		if err != nil {
			return err
		}
	}
	return nil
}

// JointResult is the Sec. VII-B multi-accelerator chiplet-reuse outcome for
// one base (lowest-TOPs) candidate.
type JointResult struct {
	Base     arch.Config
	Scaled   []CandidateResult // one per target factor, including factor 1
	Product  float64           // product of MC*E*D over all accelerators
	Feasible bool
}
