// Command gemini-map runs the Mapping Engine for one DNN on one
// architecture preset and reports delay, energy breakdown, and mapping
// statistics. It can save the explored scheme as JSON (like the artifact's
// best-scheme outputs), reload one with -scheme, dump per-core instruction
// streams, and cross-check the analytic network time against the
// event-driven contention simulator.
//
// Usage:
//
//	gemini-map -model resnet50 -arch garch72 -batch 64 -save scheme.json
//	gemini-map -model resnet50 -arch garch72 -scheme scheme.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/isa"
)

func archByName(name string) (arch.Config, bool) {
	switch name {
	case "garch72":
		return arch.GArch72(), true
	case "simba":
		return arch.Simba(), true
	case "grayskull", "tarch":
		return arch.Grayskull(), true
	case "garchtorus":
		return arch.GArchTorus(), true
	}
	return arch.Config{}, false
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemini-map: ")

	model := flag.String("model", "resnet50", "zoo model name or @file for a text description")
	archName := flag.String("arch", "garch72", "garch72, simba, grayskull or garchtorus")
	batch := flag.Int("batch", 64, "batch size")
	saIters := flag.Int("sa", 2000, "SA iterations (0 = T-Map stripe baseline)")
	save := flag.String("save", "", "save the explored scheme JSON here")
	schemeIn := flag.String("scheme", "", "evaluate a previously saved scheme instead of exploring")
	instr := flag.Bool("instr", false, "compile and functionally verify instruction streams")
	simcheck := flag.Bool("simcheck", false, "cross-check net time with the contention simulator")
	report := flag.Bool("report", false, "print the per-group, per-layer energy & delay report")
	flag.Parse()

	cfg, ok := archByName(*archName)
	if !ok {
		log.Fatalf("unknown architecture %q", *archName)
	}

	var g *dnn.Graph
	var err error
	if len(*model) > 0 && (*model)[0] == '@' {
		f, ferr := os.Open((*model)[1:])
		if ferr != nil {
			log.Fatal(ferr)
		}
		g, err = dnn.Parse(f)
		f.Close()
	} else {
		g, err = dnn.Model(*model)
	}
	if err != nil {
		log.Fatal(err)
	}

	ev := eval.New(&cfg)
	var scheme *core.Scheme
	if *schemeIn != "" {
		f, ferr := os.Open(*schemeIn)
		if ferr != nil {
			log.Fatal(ferr)
		}
		scheme, err = core.ReadSchemeJSON(f, g)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := scheme.Validate(&cfg); err != nil {
			log.Fatalf("loaded scheme invalid for %s: %v", cfg.Name, err)
		}
	} else {
		opt := dse.DefaultOptions()
		opt.Batch = *batch
		opt.SAIterations = *saIters
		mr, merr := dse.NewSession().MapModel(&cfg, g, opt)
		if merr != nil {
			log.Fatal(merr)
		}
		scheme = mr.SA.Scheme
	}

	r := ev.Evaluate(scheme)
	if !r.Feasible {
		log.Fatal("scheme infeasible on this architecture")
	}
	fmt.Printf("model %s (%d layers, %.2f GMACs/sample) on %s, batch %d\n",
		g.Name, len(g.Layers), float64(g.TotalMACs())/1e9, cfg.Name, scheme.Batch)
	fmt.Printf("delay  %.6g s   (%.1f samples/s)\n", r.Delay, float64(scheme.Batch)/r.Delay)
	e := r.Energy
	fmt.Printf("energy %.6g J   (dram %.3g, noc %.3g, d2d %.3g, intra %.3g)\n",
		e.Total(), e.DRAM, e.NoC, e.D2D, e.IntraCore())
	fmt.Printf("groups %d, avg %.1f layers/stage, DRAM traffic %.4g MB\n",
		len(scheme.Groups), eval.AvgLayersPerGroup(scheme), r.DRAMBytes/1e6)

	if *instr {
		total := 0
		for gi := range scheme.Groups {
			an, aerr := core.Analyze(scheme, gi, &cfg)
			if aerr != nil {
				log.Fatal(aerr)
			}
			p, cerr := isa.Compile(an)
			if cerr != nil {
				log.Fatal(cerr)
			}
			if _, rerr := isa.Run(p); rerr != nil {
				log.Fatalf("group %d instruction verification failed: %v", gi, rerr)
			}
			total += p.Len()
		}
		fmt.Printf("instructions: %d across %d groups, functionally verified\n", total, len(scheme.Groups))
	}
	if *simcheck {
		for gi := range scheme.Groups {
			sim, analytic, serr := ev.SimulateGroupNet(scheme, gi)
			if serr != nil {
				log.Fatal(serr)
			}
			fmt.Printf("group %2d net time: analytic %.4g s, simulated %.4g s (x%.2f)\n",
				gi, analytic, sim, sim/analytic)
		}
	}

	if *report {
		rep, rerr := ev.Report(scheme)
		if rerr != nil {
			log.Fatal(rerr)
		}
		fmt.Println()
		rep.Print(os.Stdout)
	}

	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		if err := scheme.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scheme saved to %s\n", *save)
	}
}
