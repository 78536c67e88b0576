// Command gemini-figures reproduces the Fig. 6 design-space scatter and the
// Fig. 7 objective-optima analysis (Sec. VII-A).
//
// The full Table I grids take hours on a laptop (the paper used an
// 80-thread server); -reduced sweeps a representative sub-grid instead.
package main

import (
	"flag"
	"log"
	"os"

	"gemini/internal/dse"
	"gemini/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gemini-figures: ")

	quick := flag.Bool("quick", false, "tiny workloads and tiny grid")
	reduced := flag.Bool("reduced", false, "full workloads on the reduced grid")
	sa := flag.Int("sa", 0, "override SA iterations")
	fig := flag.String("fig", "both", "6, 7, granularity, or both")
	flag.Parse()

	opt := experiments.FullOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *sa > 0 {
		opt.SAIterations = *sa
	}
	// One session across every figure: Fig. 6 and Fig. 7 sweep the same
	// candidate space, so the second sweep restores the first's cells.
	opt.Session = dse.NewSession()
	defer func() {
		st := opt.Session.CacheStats()
		log.Printf("shared cache: %d hits / %d misses (%.1f%% hit rate)",
			st.Hits, st.Misses, 100*st.HitRate())
	}()

	if *fig == "6" || *fig == "both" {
		var spaces []dse.Space
		if *reduced && !*quick {
			spaces = []dse.Space{dse.Space128().Reduced(), dse.Space512().Reduced()}
		}
		r, err := experiments.Fig6(opt, spaces...)
		if err != nil {
			log.Fatal(err)
		}
		r.Print(os.Stdout)
	}
	if *fig == "granularity" || *fig == "both" {
		cg, err := experiments.ChipletGranularity(opt)
		if err != nil {
			log.Fatal(err)
		}
		cg.Print(os.Stdout)
		cc, err := experiments.CoreGranularity(opt)
		if err != nil {
			log.Fatal(err)
		}
		cc.Print(os.Stdout)
	}
	if *fig == "7" || *fig == "both" {
		var spaces []dse.Space
		if *reduced && !*quick {
			spaces = []dse.Space{dse.Space128().Reduced()}
		}
		r, err := experiments.Fig7(opt, spaces...)
		if err != nil {
			log.Fatal(err)
		}
		r.Print(os.Stdout)
	}
}
