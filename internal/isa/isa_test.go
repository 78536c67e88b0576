package isa

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
)

func analyzedTiny(t *testing.T) (*core.Scheme, *core.Analysis, *arch.Config) {
	t.Helper()
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, &cfg, [][]int{ids}, []int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(s, 0, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, an, &cfg
}

func TestCompileProducesAllPhases(t *testing.T) {
	_, an, _ := analyzedTiny(t)
	p, err := Compile(an)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[OpCode]int{}
	for _, stream := range p.Streams {
		for _, in := range stream {
			counts[in.Op]++
		}
	}
	if counts[OpCompute] != len(an.PWs) {
		t.Errorf("computes = %d, want one per workload (%d)", counts[OpCompute], len(an.PWs))
	}
	if counts[OpSend] != counts[OpRecv] {
		t.Errorf("sends %d != recvs %d", counts[OpSend], counts[OpRecv])
	}
	if counts[OpLoad] == 0 || counts[OpStore] == 0 {
		t.Errorf("missing loads/stores: %v", counts)
	}
}

func TestRunExecutesWithoutDeadlock(t *testing.T) {
	_, an, _ := analyzedTiny(t)
	p, err := Compile(an)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != p.Len() {
		t.Errorf("executed %d of %d", st.Executed, p.Len())
	}
	if total(st.Sent) != total(st.Received) {
		t.Errorf("sent %v != received %v", total(st.Sent), total(st.Received))
	}
}

func TestRunConservesFlowTotals(t *testing.T) {
	_, an, _ := analyzedTiny(t)
	p, err := Compile(an)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Per-destination sends match the analysis.
	var wantSend float64
	for _, f := range an.ActFlows {
		wantSend += f.Bytes * float64(len(f.Dsts))
	}
	if total(st.Sent) != wantSend {
		t.Errorf("sent %v, analysis says %v", total(st.Sent), wantSend)
	}
	// DRAM stores match explicit OF flows.
	var wantStore float64
	for _, f := range an.ActDRAM {
		if f.Write {
			wantStore += f.Bytes
		}
	}
	var gotStore float64
	for _, v := range st.Stored {
		gotStore += v
	}
	if gotStore != wantStore {
		t.Errorf("stored %v, analysis says %v", gotStore, wantStore)
	}
	// Weight loads match the weight flows (per-core replication).
	var wantW float64
	for _, f := range an.WeightFlows {
		wantW += f.Bytes * float64(len(f.Cores))
	}
	var gotW float64
	for _, v := range st.Weights {
		gotW += v
	}
	if gotW != wantW {
		t.Errorf("weights %v, analysis says %v", gotW, wantW)
	}
}

func TestRunAfterRandomOperators(t *testing.T) {
	s, _, cfg := analyzedTiny(t)
	rng := rand.New(rand.NewSource(5))
	mu := &core.Mutator{Graph: s.Graph, Drams: cfg.DRAMControllers(), Rng: rng}
	for trial := 0; trial < 50; trial++ {
		for j := 0; j < 5; j++ {
			mu.Apply(s.Groups[0])
		}
		an, err := core.Analyze(s, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(an)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := Run(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if total(st.Sent) != total(st.Received) {
			t.Fatalf("trial %d: conservation broken", trial)
		}
	}
}

func TestRunMultiGroupScheme(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	half := len(ids) / 2
	s, err := core.StripeScheme(g, &cfg, [][]int{ids[:half], ids[half:]}, []int{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range s.Groups {
		an, err := core.Analyze(s, gi, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(an)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p); err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	// A recv whose send never exists must be reported as deadlock.
	p := &Program{Streams: map[arch.CoreID][]Instr{
		0: {{Op: OpRecv, Peer: 1, Bytes: 10, Tag: 42}},
	}}
	if _, err := Run(p); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunDetectsByteMismatch(t *testing.T) {
	p := &Program{Streams: map[arch.CoreID][]Instr{
		0: {{Op: OpSend, Peer: 1, Bytes: 10, Tag: 1}},
		1: {{Op: OpRecv, Peer: 0, Bytes: 20, Tag: 1}},
	}}
	if _, err := Run(p); err == nil {
		t.Fatal("expected byte mismatch error")
	}
}

func TestRunDetectsDuplicateTag(t *testing.T) {
	p := &Program{Streams: map[arch.CoreID][]Instr{
		0: {
			{Op: OpSend, Peer: 1, Bytes: 10, Tag: 1},
			{Op: OpSend, Peer: 1, Bytes: 10, Tag: 1},
		},
		1: {{Op: OpRecv, Peer: 0, Bytes: 10, Tag: 1}},
	}}
	if _, err := Run(p); err == nil {
		t.Fatal("expected duplicate tag error")
	}
}

func TestOpCodeString(t *testing.T) {
	names := map[OpCode]string{OpLoad: "LOAD", OpRecv: "RECV", OpCompute: "COMPUTE", OpSend: "SEND", OpStore: "STORE"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d -> %q, want %q", op, op.String(), want)
		}
	}
}

func TestPeakGLBTracked(t *testing.T) {
	_, an, _ := analyzedTiny(t)
	p, err := Compile(an)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, v := range st.PeakGLB {
		if v > 0 {
			any = true
		}
		if v < 0 {
			t.Fatalf("negative peak residency %v", v)
		}
	}
	if !any {
		t.Error("no GLB residency observed")
	}
}

// total sums a per-core byte table over all cores.
func total(bytes map[arch.CoreID]float64) float64 {
	t := 0.0
	for _, v := range bytes {
		t += v
	}
	return t
}
