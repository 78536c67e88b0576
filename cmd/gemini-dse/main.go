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
// Usage:
//
//	gemini-dse -tops 72 -reduced -models transformer -batch 64 \
//	    -restarts 4 -resume sweep.ckpt -out result.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gemini/internal/atomicfile"
	"gemini/internal/dnn"
	"gemini/internal/dse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemini-dse: ")

	tops := flag.Int("tops", 72, "target compute: 72, 128 or 512 TOPs")
	reduced := flag.Bool("reduced", false, "use the reduced candidate grid (fast)")
	models := flag.String("models", "transformer", "comma-separated workload list")
	batch := flag.Int("batch", 64, "batch size (64 = throughput scenario)")
	saIters := flag.Int("sa", 600, "SA iterations per candidate/model mapping")
	restarts := flag.Int("restarts", 1, "SA portfolio width per (candidate, model) cell")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	alpha := flag.Float64("alpha", 1, "MC exponent of the objective")
	beta := flag.Float64("beta", 1, "energy exponent of the objective")
	gamma := flag.Float64("gamma", 1, "delay exponent of the objective")
	prune := flag.Bool("prune", false, "skip candidates whose objective lower bound exceeds the best seen (decisions are logged); candidates always dispatch in ascending lower-bound order")
	cacheDir := flag.String("cache-dir", "", "evaluation-cache spill directory: warm group evaluations from it before the sweep, merge and save the cache once after it")
	resume := flag.String("resume", "", "checkpoint file: load completed cells from it if present, save on completion; a corrupt file is quarantined to <file>.corrupt and the sweep resumes cold")
	stream := flag.Bool("stream", false, "print each candidate result as it completes")
	out := flag.String("out", "", "write full result table CSV to this path")
	top := flag.Int("top", 10, "print the best N candidates")
	flag.Parse()

	var sp dse.Space
	switch *tops {
	case 72:
		sp = dse.Space72()
	case 128:
		sp = dse.Space128()
	case 512:
		sp = dse.Space512()
	default:
		log.Fatalf("unsupported -tops %d (want 72, 128 or 512)", *tops)
	}
	if *reduced {
		sp = sp.Reduced()
	}

	var graphs []*dnn.Graph
	for _, name := range strings.Split(*models, ",") {
		g, err := dnn.Model(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	opt := dse.DefaultOptions()
	opt.Batch = *batch
	opt.SAIterations = *saIters
	opt.Restarts = *restarts
	opt.Workers = *workers
	opt.Objective = dse.Objective{Alpha: *alpha, Beta: *beta, Gamma: *gamma}
	opt.Prune = *prune

	ses := dse.NewSession()
	ses.Logf = log.Printf
	if *cacheDir != "" {
		// A damaged spill warms nothing; only real I/O failures land here,
		// and a cold cache is still correct.
		if _, err := ses.WarmDiskCache(*cacheDir); err != nil {
			log.Printf("disk cache warm failed, running cold: %v", err)
		}
	}
	if *resume != "" {
		if f, err := os.Open(*resume); err == nil {
			err := ses.LoadCheckpoint(f)
			f.Close()
			if err != nil {
				// A corrupt checkpoint must not kill the sweep: quarantine it
				// (keeping the bytes for diagnosis), resume cold, and let the
				// completion save write a fresh file.
				quarantine := *resume + ".corrupt"
				if rerr := os.Rename(*resume, quarantine); rerr != nil {
					log.Printf("corrupt checkpoint %s could not be quarantined (%v); resuming cold: %v", *resume, rerr, err)
				} else {
					log.Printf("corrupt checkpoint quarantined to %s; resuming cold: %v", quarantine, err)
				}
			} else {
				fmt.Printf("resumed %d checkpointed cells from %s\n", ses.CheckpointCells(), *resume)
			}
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}

	cands := sp.Enumerate()
	total := len(cands)
	fmt.Printf("space %s: %d candidates, %d workload(s), batch %d, restarts %d\n",
		sp.Name, total, len(graphs), *batch, *restarts)
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
	fmt.Printf("explored in %v\n", time.Since(start).Round(time.Second))
	st := ses.CacheStats()
	fmt.Printf("shared cache: %d hits / %d misses (%.1f%% hit rate), %d entries; %d cells resumed\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Entries, ses.ResumedCells())
	if *cacheDir != "" {
		// Saved once, after the sweep, like -resume: the spill is a
		// recomputable cache, so a failed save costs only warmth.
		if err := ses.SaveDiskCache(*cacheDir); err != nil {
			log.Printf("disk cache save failed: %v", err)
		}
		st = ses.CacheStats()
		fmt.Printf("disk cache (%s): %d entries warmed from disk, %d hits served by them, %d saves\n",
			dse.CachePath(*cacheDir), st.DiskLoaded, st.DiskHits, st.DiskSaves)
	}
	fmt.Printf("scheduler: %d/%d candidates pruned, %d cells resumed, %d restarts abandoned by the incumbent, %d SA iterations\n",
		ss.PrunedCandidates, ss.Candidates, ss.ResumedCells, ss.AbandonedRestarts, ss.SAIterations)
	if ss.Panics > 0 {
		fmt.Printf("faults: %d recovered panics\n", ss.Panics)
	}
	if len(ss.Trajectory) > 0 {
		fmt.Print("incumbent trajectory:")
		for _, step := range ss.Trajectory {
			fmt.Printf("  %.4g (%s)", step.Obj, step.Candidate)
		}
		fmt.Println()
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
	if errs := dse.Errors(results); len(errs) > 0 {
		for _, e := range errs {
			log.Printf("sweep error: %v", e)
		}
	}

	best := dse.Best(results)
	if best == nil {
		log.Fatal("no feasible candidate")
	}
	fmt.Printf("optimal architecture (MC^%.1f E^%.1f D^%.1f): %s\n",
		*alpha, *beta, *gamma, best.Cfg.Name)
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
