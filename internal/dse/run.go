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
	"gemini/internal/faultinject"
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

// Options configures a DSE run.
type Options struct {
	Objective Objective
	Batch     int
	// SAIterations per (candidate, DNN) mapping search.
	SAIterations int
	// Restarts is the SA portfolio width per (candidate, model) cell:
	// each cell anneals Restarts times with deterministically derived seeds
	// and keeps the best outcome (<=1 means a single run, bit-identical to
	// the pre-portfolio engine).
	Restarts int
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
	Seed    int64
	// MaxGroupLayers and BatchUnits forward to the graph partitioner.
	MaxGroupLayers int
	BatchUnits     []int
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
	// Candidates always dispatch in ascending lower-bound order, pruning or
	// not, so the cheap candidates that tighten the incumbent run first.
	Prune bool
	// CacheDir, when set, backs the session's shared evaluation cache with a
	// disk spill in this directory: RunContext warms the cache from the
	// directory's spill file once per session, re-saves it in the background
	// as candidates complete (coalesced off the result path, atomic rename),
	// and saves a final snapshot when the sweep ends. Group results are
	// keyed by stable (arch, graph, group) fingerprints, so a restarted
	// process pointed at the same directory recomputes none of its
	// predecessor's cached group evaluations. Serving from disk is
	// bit-identical to recomputing, and the option never changes a mapping,
	// so it is excluded from the checkpoint fingerprint. Not settable
	// through the JSON sweep spec: where a server spills its cache is the
	// operator's choice, not the client's.
	CacheDir string `json:"-"`
	// OnResult, when set, streams each candidate's result as soon as it
	// completes (including pruned and errored candidates). Calls are
	// serialized but arrive in completion order, not candidate order.
	OnResult func(CandidateResult) `json:"-"`
	// Dispatch, when set, wraps the scheduler's cell feed: the scheduler
	// builds its default bound-ordered Dispatcher (one per sweep) and hands
	// it to Dispatch, whose return value the workers pull from instead;
	// tests use it to impose a grid order. A feed only
	// schedules — cells it never delivers are reported as canceled, not
	// computed — so it is excluded from the checkpoint fingerprint.
	Dispatch func(Dispatcher) Dispatcher `json:"-"`
	// SweepID optionally names the sweep for logs and SweepStats; the sweep
	// service keys server-side checkpoints by it. It only labels — it never
	// changes a mapping — so it is excluded from the checkpoint fingerprint.
	SweepID string `json:"sweep_id,omitempty"`
	// FaultInjector, when non-nil, arms the deterministic fault-injection
	// harness for chaos tests (see internal/faultinject) at the disk-cache
	// saver. nil — the production state — is a pointer comparison per save
	// and changes nothing.
	FaultInjector *faultinject.Injector `json:"-"`
	// Incumbent, when set, reads an external pruning incumbent (a fleet
	// worker's cached fleet-wide best): the scheduler's incumbent is
	// min(local best, Incumbent()) wherever it gates work — the pre-cell
	// prune check and the SA stop hook. It is polled on those hot gates, so
	// it must be cheap (an atomic load) and return +Inf while no external
	// incumbent exists. It must only ever return achieved feasible
	// objectives for the same spec, so the fold stays a sound pruning bound
	// (the global optimum can never be dominated by an achieved value). Like
	// Prune it only skips work — it never changes a computed cell's bits —
	// so it is excluded from the checkpoint fingerprint.
	Incumbent func() float64 `json:"-"`
}

// DefaultOptions returns throughput-scenario settings (batch 64, Sec. VI-A1).
func DefaultOptions() Options {
	return Options{
		Objective:    MCED,
		Batch:        64,
		SAIterations: 600,
		Restarts:     1,
		Seed:         1,
		BatchUnits:   []int{1, 2, 4, 8},
	}
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

// MapModel runs the full Mapping Engine pipeline for one DNN on one
// architecture: DP graph partition, then SA refinement of the LP SPM
// (a portfolio of opt.Restarts annealing runs). Infeasibility is reported
// as an error wrapping ErrInfeasible; any other error is an infrastructure
// failure.
func MapModel(cfg *arch.Config, g *dnn.Graph, opt Options) (*MapResult, error) {
	return mapModelEval(eval.New(cfg), cfg, g, opt, nil)
}

// mapModelEval is MapModel on a caller-supplied evaluator, so sessions can
// reuse warm evaluators (route tables, intra-core memo, shared group cache)
// across candidates and runs. stop, when non-nil, is polled between SA
// restarts; if it fires, the cell is abandoned with an abandonedError.
func mapModelEval(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, opt Options, stop func() bool) (*MapResult, error) {
	gp := graphpart.DefaultOptions()
	gp.Beta, gp.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	if opt.MaxGroupLayers > 0 {
		gp.MaxGroupLayers = opt.MaxGroupLayers
	}
	if len(opt.BatchUnits) > 0 {
		gp.BatchUnits = opt.BatchUnits
	}
	part, err := graphpart.Partition(g, cfg, ev, opt.Batch, gp)
	if err != nil {
		if errors.Is(err, graphpart.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	so := sa.DefaultOptions()
	so.Iterations = opt.SAIterations
	so.Seed = opt.Seed
	so.Beta, so.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	// The scheduler's stop gate is polled between restarts and inside the
	// annealing loop, so a cell dominated mid-anneal stops within one stride.
	// Abandoned cells are never settled or checkpointed.
	so.Stop = stop
	// A panicking restart unwinds the whole portfolio to the cell's recover
	// (Session.runCell), so a partial portfolio is never folded.
	pf := sa.MultiStart(part.Scheme, ev, so, opt.Restarts)
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
// along: restored cells came from the checkpoint, and an abandoned cell was
// cut off by the live incumbent (no settled outcome at all).
type pairOutcome struct {
	mr  *MapResult
	err error

	restored          bool
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

// Run explores every candidate and returns results sorted by ascending
// objective (infeasible, pruned and errored candidates last). Work is
// scheduled at (candidate, model) granularity over a bounded worker pool,
// so all cores stay busy even when one candidate's mapping search dominates
// the tail. Run is a convenience wrapper over a throwaway Session; use a
// Session directly to share the evaluation cache across calls.
func Run(cands []arch.Config, models []*dnn.Graph, opt Options) []CandidateResult {
	return NewSession().Run(cands, models, opt)
}

// reduceCandidate folds one candidate's per-model mappings into its DSE
// result (geometric-mean energy/delay, MC^alpha E^beta D^gamma objective).
// A candidate with any errored model is an error; with any infeasible model
// it is infeasible; either way it publishes no per-model results. The
// geometric mean is accumulated in log space so many-model sweeps with tiny
// per-model energies cannot underflow the running product to zero.
func reduceCandidate(cfg *arch.Config, per []pairOutcome, models []*dnn.Graph, mce *cost.Evaluator, opt Options) CandidateResult {
	res := CandidateResult{Cfg: *cfg, MC: mce.Evaluate(cfg)}
	var errs []error
	infeasible := false
	var sumLogE, sumLogD float64
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
		sumLogE += math.Log(p.mr.Energy)
		sumLogD += math.Log(p.mr.Delay)
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
	n := float64(len(models))
	if n == 0 {
		res.Obj = math.Inf(1)
		return res
	}
	res.Energy = math.Exp(sumLogE / n)
	res.Delay = math.Exp(sumLogD / n)
	res.Feasible = true
	res.Obj = Score(res.MC.Total(), res.Energy, res.Delay, opt.Objective)
	return res
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

// JointRun explores chiplet reuse: each base candidate's chiplet is
// replicated to build accelerators at every factor in factors (1 = the base
// itself), and candidates are ranked by the product of their objectives
// (paper Sec. VII-B "Joint Optimal"). JointRun is a convenience wrapper
// over a throwaway Session.
func JointRun(bases []arch.Config, factors []int, models []*dnn.Graph, opt Options) []JointResult {
	return NewSession().JointRun(bases, factors, models, opt)
}
