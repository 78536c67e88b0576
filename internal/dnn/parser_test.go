package dnn

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

const sampleDesc = `
# a small residual CNN
model samplenet
input x 32 32 3
conv c1 x k=16 r=3 stride=1 pad=1
conv c2 c1 k=16 r=3 stride=1 pad=1
add  a1 c1 c2
pool p1 a1 r=2 stride=2
conv c3 p1 k=32 r=3 pad=1
gap  g  c3
fc   out g k=10
`

func TestParseSample(t *testing.T) {
	g, err := ParseString(sampleDesc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "samplenet" {
		t.Errorf("name = %q", g.Name)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Parsed model matches the hand-built TinyCNN topology.
	ref := TinyCNN()
	if len(g.Layers) != len(ref.Layers) {
		t.Fatalf("layers = %d, want %d", len(g.Layers), len(ref.Layers))
	}
	if g.TotalMACs() != ref.TotalMACs() {
		t.Errorf("MACs = %d, want %d", g.TotalMACs(), ref.TotalMACs())
	}
	if g.Depth() != ref.Depth() {
		t.Errorf("depth = %d, want %d", g.Depth(), ref.Depth())
	}
}

func TestParseTransformerOps(t *testing.T) {
	desc := `
model attn
input x 16 1 64
proj q x k=64
proj k x k=64
proj v x k=64
matmulT s q k
softmax a s
matmul c a v
proj o c k=64
add r o x
`
	g, err := ParseString(desc)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, l := range g.Layers {
		kinds[l.Kind]++
	}
	if kinds[MatMul] != 6 { // 4 weighted projections + 2 activation matmuls
		t.Errorf("matmuls = %d, want 6", kinds[MatMul])
	}
	if kinds[Softmax] != 1 || kinds[Eltwise] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestParseConcatAndGroups(t *testing.T) {
	desc := `
model inceptionish
input x 16 16 8
conv b1 x k=8 r=1
conv b2 x k=8 r=3 pad=1
concat cat b1 b2
conv g1 cat k=16 r=3 pad=1 groups=4
gap gg g1
fc out gg k=4
`
	g, err := ParseString(desc)
	if err != nil {
		t.Fatal(err)
	}
	var grouped *Layer
	for _, l := range g.Layers {
		if l.Groups == 4 {
			grouped = l
		}
	}
	if grouped == nil {
		t.Fatal("grouped conv missing")
	}
	if grouped.IC != 16 {
		t.Errorf("concat consumer IC = %d, want 16", grouped.IC)
	}
	if len(grouped.Inputs) != 2 {
		t.Errorf("concat consumer edges = %d, want 2", len(grouped.Inputs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"undefined tensor":    "model m\nconv c x k=8 r=3\n",
		"unknown op":          "model m\ninput x 8 8 3\nfrobnicate y x\n",
		"missing model":       "input x 8 8 3\n",
		"malformed option":    "model m\ninput x 8 8 3\nconv c x k8 r=3\n",
		"non-integer dims":    "model m\ninput x eight 8 3\n",
		"conv missing kernel": "model m\ninput x 8 8 3\nconv c x k=8\n",
		"pool missing window": "model m\ninput x 8 8 3\npool p x stride=2\n",
		"fc missing units":    "model m\ninput x 8 8 3\nfc f x\n",
		"add single input":    "model m\ninput x 8 8 3\nadd a x\n",
	}
	for name, desc := range cases {
		if _, err := ParseString(desc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseRoundTripMapsEndToEnd(t *testing.T) {
	g, err := Parse(strings.NewReader(sampleDesc))
	if err != nil {
		t.Fatal(err)
	}
	// Parsed graphs flow through the same machinery as zoo models.
	if g.Layers[len(g.Layers)-1].Kind != FC {
		t.Error("output layer should be the FC head")
	}
}

// TestParseNumericOptionErrorWrapped pins the %w wrap on numeric option
// errors: callers can classify the failure
// with errors.As against *strconv.NumError instead of matching error text.
func TestParseNumericOptionErrorWrapped(t *testing.T) {
	_, err := ParseString("model m\ninput x 8 8 3\nconv c1 x k=abc\n")
	if err == nil {
		t.Fatal("want error for non-numeric option value")
	}
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Fatalf("parse error %v does not wrap *strconv.NumError", err)
	}
}
