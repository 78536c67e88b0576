package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// flowBag renders a flow list as a sorted multiset of strings, so two lists
// compare equal whatever order they are in.
func flowBag[F any](flows []F) []string {
	bag := make([]string, len(flows))
	for i, f := range flows {
		bag[i] = fmt.Sprintf("%+v", f)
	}
	sort.Strings(bag)
	return bag
}

// checkIntoMatchesAnalyze parses group gi into the long-lived Analysis `into`
// — dirty with whatever group, graph and core count it parsed last — and
// holds it against a fresh Analyze of the same group.
func checkIntoMatchesAnalyze(t *testing.T, into *Analysis, s *Scheme, gi int, cfg *arch.Config) {
	t.Helper()
	want, err := Analyze(s, gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AnalyzeInto(into, s, gi, cfg); err != nil {
		t.Fatal(err)
	}
	if into.GroupIndex != want.GroupIndex || into.BatchUnit != want.BatchUnit || into.Depth != want.Depth {
		t.Fatalf("%s group %d: header %d/%d/%d, Analyze %d/%d/%d", s.Graph.Name, gi,
			into.GroupIndex, into.BatchUnit, into.Depth, want.GroupIndex, want.BatchUnit, want.Depth)
	}
	if !reflect.DeepEqual(into.PWs, want.PWs) {
		t.Fatalf("%s group %d: PWs differ", s.Graph.Name, gi)
	}
	occupied := 0
	for c, occ := range into.Occupied {
		w, ok := want.Works[arch.CoreID(c)]
		if occ != ok || (occ && into.CoreWorks[c] != w) {
			t.Fatalf("%s group %d core %d: dense workload (%v) %+v, Analyze's (%v) %+v", s.Graph.Name, gi, c, occ, into.CoreWorks[c], ok, w)
		}
		if occ {
			occupied++
		}
	}
	if len(into.Occupied) != cfg.Cores() || occupied != len(want.Works) {
		t.Fatalf("%s group %d: %d of %d cores occupied, Analyze has %d works", s.Graph.Name, gi, occupied, len(into.Occupied), len(want.Works))
	}
	for name, lists := range map[string][2][]string{
		"ActFlows":    {flowBag(into.ActFlows), flowBag(want.ActFlows)},
		"ActDRAM":     {flowBag(into.ActDRAM), flowBag(want.ActDRAM)},
		"WeightFlows": {flowBag(into.WeightFlows), flowBag(want.WeightFlows)},
	} {
		if !slices.Equal(lists[0], lists[1]) {
			t.Fatalf("%s group %d: %s differ as multisets:\n%v\n%v", s.Graph.Name, gi, name, lists[0], lists[1])
		}
	}
	// Analyze sorts ActFlows alone: the DRAM lists come out of both in the
	// same emission order.
	sameOrder := func(a, b []DRAMFlow) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	if !sameOrder(into.ActDRAM, want.ActDRAM) || !sameOrder(into.WeightFlows, want.WeightFlows) {
		t.Fatalf("%s group %d: AnalyzeInto's DRAM flows are not in Analyze's order", s.Graph.Name, gi)
	}

	// Analyze is the inspection form: sorted ActFlows, populated maps.
	if want.Works == nil || want.ByLayer == nil || len(want.ByLayer) != len(s.Groups[gi].MSs) {
		t.Fatalf("%s group %d: Analyze returned Works %v, ByLayer %v", s.Graph.Name, gi, want.Works, want.ByLayer)
	}
	for _, ms := range s.Groups[gi].MSs {
		for _, pi := range want.ByLayer[ms.Layer] {
			if want.PWs[pi].Layer != ms.Layer {
				t.Fatalf("%s group %d: ByLayer[%d] lists a workload of layer %d", s.Graph.Name, gi, ms.Layer, want.PWs[pi].Layer)
			}
		}
		if len(want.ByLayer[ms.Layer]) != ms.Part.N() {
			t.Fatalf("%s group %d: ByLayer[%d] has %d workloads, want %d", s.Graph.Name, gi, ms.Layer, len(want.ByLayer[ms.Layer]), ms.Part.N())
		}
	}
	actSorted := slices.IsSortedFunc(want.ActFlows, func(x, y CoreFlow) int {
		if x.Src != y.Src {
			return int(x.Src - y.Src)
		}
		if x.Bytes != y.Bytes {
			if x.Bytes < y.Bytes {
				return -1
			}
			return 1
		}
		return coreCmp(x.Dsts, y.Dsts)
	})
	if !actSorted {
		t.Fatalf("%s group %d: Analyze returned unsorted ActFlows", s.Graph.Name, gi)
	}
}

// TestAnalyzeIntoMatchesAnalyze: one Analysis reused across every DP segment
// x batch unit of TinyCNN and TinyTransformer, across the group states of a
// seeded walk of the five operators over two-group schemes of each (including
// one whose groups list their layers in reverse), and across two core
// arrays, parses each group exactly as a fresh Analyze does — workloads,
// depth, per-core work, and all three flow lists as multisets — so nothing of
// the previous group survives in the dense tables.
func TestAnalyzeIntoMatchesAnalyze(t *testing.T) {
	wide := arch.GArch72()
	wide.CoresX, wide.CoresY, wide.XCut, wide.YCut = 9, 6, 3, 2
	into := new(Analysis)
	for _, cfg := range []arch.Config{arch.GArch72(), wide, arch.GArch72()} {
		st := NewStriper(&cfg)
		for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()} {
			ids := allLayers(g)
			for j := range ids {
				for i := j + 1; i <= len(ids); i++ {
					for _, bu := range []int{1, 2, 4, 8} {
						lms, err := st.Stripes(g, ids[j:i], bu)
						if err != nil {
							t.Fatal(err)
						}
						checkIntoMatchesAnalyze(t, into, &Scheme{Graph: g, Batch: 8, Groups: []*LMS{lms}}, 0, &cfg)
					}
				}
			}

			half := len(ids) / 2
			s, err := StripeScheme(g, &cfg, [][]int{ids[:half], ids[half:]}, []int{2, 1}, 8)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			mu := &Mutator{Graph: g, Drams: cfg.DRAMControllers(), Rng: rng}
			for it := 0; it < 300; it++ {
				if _, ok := mu.Apply(s.Groups[rng.Intn(len(s.Groups))]); !ok {
					continue
				}
				for gi := range s.Groups {
					checkIntoMatchesAnalyze(t, into, s, gi, &cfg)
				}
			}
			// MS order within a group is free: reverse it, so the layers
			// are listed descending.
			for _, lms := range s.Groups {
				slices.Reverse(lms.MSs)
			}
			for gi := range s.Groups {
				checkIntoMatchesAnalyze(t, into, s, gi, &cfg)
			}
		}
	}
}

// TestLayerParseReuseMatchesFresh: a few LayerParses, reused the way the
// delta path reuses a layer's buffers — relabelled from one parse, parsed
// again, for layers of every shape in a seeded order, now and then with
// buffers of unrelated capacities — parse every layer of
// the zoo's models, under seeded Parts, batch units and core groups, exactly
// as a fresh LayerParse does: workloads, work, and each input edge's needs and
// their workloads. Nothing a previous, differently shaped parse left in the
// buffers may show.
func TestLayerParseReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mu := &Mutator{Rng: rng}
	type parsed struct {
		g  *dnn.Graph
		ms *MS
		bu int
		lp LayerParse
	}
	var all []parsed
	for _, g := range []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer(), dnn.ResNet50(), dnn.Transformer()} {
		for _, l := range g.Layers {
			bu := 1 + rng.Intn(4)
			n := 1 + rng.Intn(36)
			p, ok := mu.randomPart(l, bu, n)
			if !ok {
				continue
			}
			cg := make([]arch.CoreID, p.N())
			for i, c := range rng.Perm(64)[:p.N()] {
				cg[i] = arch.CoreID(c)
			}
			x := parsed{g: g, ms: &MS{Layer: l.ID, Part: p, CG: cg}, bu: bu}
			x.lp.Parse(g, x.ms, bu)
			all = append(all, x)
		}
	}
	reused := make([]LayerParse, 4)
	for it := 0; it < 20000; it++ {
		r := &reused[rng.Intn(len(reused))]
		if rng.Intn(2) == 0 {
			src := &all[rng.Intn(len(all))]
			r.Relabel(&src.lp, src.ms)
		}
		if rng.Intn(8) == 0 { // buffers of any capacity, each grown apart
			r.needs = make([]needEntry, 0, rng.Intn(2000))
			r.needPWs = make([]int32, 0, rng.Intn(8))
			r.edge = make([]int32, 0, rng.Intn(3))
		}
		x := &all[rng.Intn(len(all))]
		r.Parse(x.g, x.ms, x.bu)
		l := x.g.Layer(x.ms.Layer)
		if !slices.Equal(r.PWs, x.lp.PWs) || !slices.Equal(r.Works, x.lp.Works) {
			t.Fatalf("step %d, %s layer %s: reused parse's workloads differ from a fresh one's", it, x.g.Name, l.Name)
		}
		for k := range l.Inputs {
			got, want := r.edgeNeedsOf(k), x.lp.edgeNeedsOf(k)
			if len(got) != len(want) {
				t.Fatalf("step %d, %s layer %s edge %d: %d needs, fresh %d", it, x.g.Name, l.Name, k, len(got), len(want))
			}
			for i := range got {
				if got[i].region != want[i].region || !slices.Equal(r.needPWs[got[i].lo:got[i].hi], x.lp.needPWs[want[i].lo:want[i].hi]) {
					t.Fatalf("step %d, %s layer %s edge %d need %d differs from a fresh parse's", it, x.g.Name, l.Name, k, i)
				}
			}
		}
	}
}
