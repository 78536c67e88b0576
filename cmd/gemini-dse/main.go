// Command gemini-dse runs the Gemini architecture/mapping co-exploration
// over a Table I candidate space (paper Sec. V-A, VI-A1) and reports the
// optimal architecture plus a result.csv-style table, like the artifact's
// dse.sh.
//
// The sweep runs inside a DSE session: a shared evaluation cache warms
// across candidates, -restarts widens the per-cell SA portfolio, -resume
// checkpoints completed (candidate, model) cells to a JSON file so an
// interrupted or repeated sweep picks up where it left off, and -stream
// prints each candidate as soon as it completes.
//
// The sweep flags resolve through a dse.Spec by the sweep service's rules
// (docs/cli.md); -sa 0 keeps meaning the stripe mapping with no annealing.
//
// Usage:
//
//	gemini-dse -tops 72 -reduced -models transformer -batch 64 \
//	    -restarts 4 -resume sweep.ckpt -out result.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"strings"
	"time"

	"gemini/internal/arch"
	"gemini/internal/atomicfile"
	"gemini/internal/dnn"
	"gemini/internal/dse"
)

// sweepFlags defines the flags that describe the sweep on fl and returns a
// function that assembles their parsed values into a dse.Spec, so they
// resolve by the spec's rules.
func sweepFlags(fl *flag.FlagSet) func() dse.Spec {
	tops := fl.Int("tops", 72, "target compute: 72, 128 or 512 TOPs")
	reduced := fl.Bool("reduced", false, "use the reduced candidate grid (fast)")
	models := fl.String("models", "transformer", "comma-separated workload list")
	batch := fl.Int("batch", 64, "batch size (64 = throughput scenario; 0 = the default 64)")
	saIters := fl.Int("sa", 600, "SA iterations per candidate/model mapping (0 = stripe mapping, no annealing)")
	restarts := fl.Int("restarts", 1, "SA portfolio width per (candidate, model) cell")
	workers := fl.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	alpha := fl.Float64("alpha", 1, "MC exponent of the objective")
	beta := fl.Float64("beta", 1, "energy exponent of the objective")
	gamma := fl.Float64("gamma", 1, "delay exponent of the objective")
	prune := fl.Bool("prune", false, "skip candidates whose objective lower bound exceeds the best seen (decisions are logged); candidates always dispatch in ascending lower-bound order")
	return func() dse.Spec {
		names := strings.Split(*models, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		return dse.Spec{
			Space:  dse.SpaceSpec{TOPS: *tops, Reduced: *reduced},
			Models: names,
			Batch:  *batch, SAIterations: *saIters, Restarts: *restarts, Workers: *workers,
			Objective: &dse.ObjectiveSpec{Alpha: *alpha, Beta: *beta, Gamma: *gamma},
			Prune:     *prune,
		}
	}
}

// resolve validates the spec and resolves its candidates, workload graphs
// and mapping options.
func resolve(s *dse.Spec) (cands []arch.Config, graphs []*dnn.Graph, opt dse.Options, err error) {
	if err = s.Validate(); err == nil {
		cands, err = s.Candidates()
	}
	if err == nil {
		graphs, err = s.Graphs()
	}
	opt = s.Options()
	// -sa 0 means the stripe mapping with no annealing, where a spec's 0
	// means the default 600; Validate has rejected a negative value.
	opt.SAIterations = s.SAIterations
	return cands, graphs, opt, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemini-dse: ")

	sweep := sweepFlags(flag.CommandLine)
	resume := flag.String("resume", "", "checkpoint file: load completed cells from it if present, save on completion; a corrupt file is quarantined to <file>.corrupt and the sweep resumes cold")
	stream := flag.Bool("stream", false, "print each candidate result as it completes")
	out := flag.String("out", "", "write full result table CSV to this path")
	top := flag.Int("top", 10, "print the best N candidates")
	flag.Parse()

	spec := sweep()
	cands, graphs, opt, err := resolve(&spec)
	if err != nil {
		log.Fatal(err)
	}
	sp, _ := spec.Space.Space() // validated by resolve

	ses := dse.NewSession()
	ses.Logf = log.Printf
	if *resume != "" {
		switch err := ses.LoadCheckpointFile(*resume); {
		case err == nil:
			fmt.Printf("resumed %d checkpointed cells from %s\n", ses.CheckpointCells(), *resume)
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet: start cold; the completion save writes one.
		case errors.Is(err, dse.ErrCorruptCheckpoint):
			// Quarantined: a corrupt checkpoint must not kill the sweep.
			log.Printf("%v; resuming cold", err)
		default:
			log.Fatal(err)
		}
	}

	total := len(cands)
	fmt.Printf("space %s: %d candidates, %d workload(s), batch %d, restarts %d\n",
		sp.Name, total, len(graphs), opt.Batch, opt.Restarts)
	done := 0
	if *stream {
		opt.OnResult = func(r dse.CandidateResult) {
			done++
			switch r.Status() {
			case "ok":
				fmt.Printf("[%d/%d] %-48s obj=%.4g E=%.3g D=%.3g\n",
					done, total, r.Cfg.Name, r.Obj, r.Energy, r.Delay)
			case "error":
				fmt.Printf("[%d/%d] %-48s ERROR: %v\n", done, total, r.Cfg.Name, r.Err)
			default:
				fmt.Printf("[%d/%d] %-48s %s\n", done, total, r.Cfg.Name, r.Status())
			}
		}
	}

	start := time.Now()
	// The error only reports cancellation, and this context never cancels.
	results, ss, _ := ses.RunContext(context.Background(), cands, graphs, opt)
	// How the sweep ran depends on time and on how its workers interleave, so
	// it goes to stderr, and two runs of one sweep print the same stdout.
	log.Printf("explored in %v", time.Since(start).Round(time.Second))
	st := ses.CacheStats()
	log.Printf("shared cache: %d hits / %d misses (%.1f%% hit rate), %d entries; %d cells resumed",
		st.Hits, st.Misses, 100*st.HitRate(), st.Entries, ses.ResumedCells())
	log.Printf("scheduler: %d/%d candidates pruned, %d cells resumed, %d restarts abandoned by the incumbent, %d SA iterations",
		ss.PrunedCandidates, ss.Candidates, ss.ResumedCells, ss.AbandonedRestarts, ss.SAIterations)
	if ss.Panics > 0 {
		log.Printf("faults: %d recovered panics", ss.Panics)
	}
	if len(ss.Trajectory) > 0 {
		var b strings.Builder
		for _, step := range ss.Trajectory {
			fmt.Fprintf(&b, "  %.4g (%s)", step.Obj, step.Candidate)
		}
		log.Printf("incumbent trajectory:%s", b.String())
	}
	fmt.Println()

	if *resume != "" {
		// Atomic replace: a kill mid-save must leave the previous checkpoint
		// intact, not a truncated file that loses every settled cell.
		if err := atomicfile.Write(*resume, ses.SaveCheckpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpointed %d cells to %s\n\n", ses.CheckpointCells(), *resume)
	}

	// Infrastructure errors are never folded into infeasibility: report
	// every errored candidate, then fail if nothing mapped.
	for _, e := range dse.Errors(results) {
		log.Printf("sweep error: %v", e)
	}

	best := dse.Best(results)
	if best == nil {
		log.Fatal("no feasible candidate")
	}
	fmt.Printf("optimal architecture (MC^%.1f E^%.1f D^%.1f): %s\n",
		opt.Objective.Alpha, opt.Objective.Beta, opt.Objective.Gamma, best.Cfg.Name)
	fmt.Printf("  MC=$%.2f  E=%.4g J  D=%.4g s  EDP=%.4g\n\n", best.MC.Total(), best.Energy, best.Delay, best.EDP())

	fmt.Printf("top %d candidates:\n", *top)
	for i := 0; i < len(results) && i < *top; i++ {
		r := &results[i]
		if !r.Feasible {
			break
		}
		fmt.Printf("%2d. %-48s obj=%.4g MC=$%.2f E=%.3g D=%.3g\n",
			i+1, r.Cfg.Name, r.Obj, r.MC.Total(), r.Energy, r.Delay)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dse.WriteCSV(f, results); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d rows)\n", *out, len(results))
	}
}
