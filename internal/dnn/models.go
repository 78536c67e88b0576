package dnn

import (
	"fmt"
	"sort"
	"strings"
)

// ModelNames lists the registered workloads: the paper's evaluation set
// (Sec. VI-A3 and Fig. 8 — ResNet-50, ResNeXt-50, Inception-ResNet-v1,
// PNASNet, GoogLeNet, Transformer, Transformer-Large, plus VGG-16 and
// MobileNetV2) and the test-scale tinycnn/tinytransformer workloads.
func ModelNames() []string {
	names := make([]string, 0, len(modelZoo))
	for n := range modelZoo {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var modelZoo = map[string]func() *Graph{
	"resnet50":         ResNet50,
	"resnext50":        ResNeXt50,
	"inceptionresnet":  InceptionResNetV1,
	"pnasnet":          PNASNet,
	"googlenet":        GoogLeNet,
	"transformer":      Transformer,
	"transformerlarge": TransformerLarge,
	// Test-scale synthetic workloads, registered so sweep specs (HTTP
	// clients, CI smoke runs) can request a cheap end-to-end sweep by name.
	"tinycnn":         TinyCNN,
	"tinytransformer": TinyTransformer,
}

// HasModel reports whether name is a registered zoo model, without
// building it — request validators use this so rejecting a bad spec never
// pays for constructing the valid graphs around it.
func HasModel(name string) bool {
	_, ok := modelZoo[strings.ToLower(name)]
	return ok
}

// Model builds a zoo model by name. Constructor panics — zoo constructors
// use Builder.MustBuild, so a topology bug or a bad future registration
// panics at build time — are recovered into errors here: model loading is
// request-path code in gemini-serve, and a bad model name or broken
// constructor must fail that one request, never the process.
func Model(name string) (g *Graph, err error) {
	f, ok := modelZoo[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("dnn: unknown model %q (have %v)", name, ModelNames())
	}
	defer func() {
		if v := recover(); v != nil {
			g, err = nil, fmt.Errorf("dnn: building model %q panicked: %v", name, v)
		}
	}()
	return f(), nil
}

// bottleneck appends one ResNet bottleneck block (1x1 reduce, 3x3, 1x1
// expand, residual add), optionally with a projection shortcut and grouped
// middle convolution (ResNeXt).
func bottleneck(b *Builder, name string, in Ref, mid, out, stride, groups int, project bool) Ref {
	x := b.Conv(name+".c1", in, mid, 1, 1, 1, 0)
	x = b.GroupedConv(name+".c2", x, mid, 3, 3, stride, 1, groups)
	x = b.Conv(name+".c3", x, out, 1, 1, 1, 0)
	sc := in
	if project {
		sc = b.Conv(name+".sc", in, out, 1, 1, stride, 0)
	}
	return b.Add(name+".add", x, sc)
}

func resnetLike(name string, groups int, midScale int) *Graph {
	b := NewBuilder(name)
	in := b.Input(224, 224, 3)
	x := b.Conv("stem", in, 64, 7, 7, 2, 3)
	x = b.Pool("stem.pool", x, 3, 2, 1)
	stages := []struct {
		blocks, mid, out, stride int
	}{
		{3, 64, 256, 1},
		{4, 128, 512, 2},
		{6, 256, 1024, 2},
		{3, 512, 2048, 2},
	}
	for si, st := range stages {
		for bi := 0; bi < st.blocks; bi++ {
			stride := 1
			if bi == 0 {
				stride = st.stride
			}
			nm := fmt.Sprintf("s%d.b%d", si+1, bi)
			x = bottleneck(b, nm, x, st.mid*midScale, st.out, stride, groups, bi == 0)
		}
	}
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 1000)
	return b.MustBuild()
}

// ResNet50 builds the standard 50-layer residual network at 224x224.
func ResNet50() *Graph { return resnetLike("resnet50", 1, 1) }

// ResNeXt50 builds ResNeXt-50 (32x4d): identical topology with 32-way
// grouped middle convolutions and doubled bottleneck width.
func ResNeXt50() *Graph { return resnetLike("resnext50", 32, 2) }

// GoogLeNet builds the 22-layer Inception-v1 network: nine inception
// modules, each with four parallel branches joined by channel concatenation.
func GoogLeNet() *Graph {
	b := NewBuilder("googlenet")
	inception := func(name string, in Ref, c1, r3, c3, r5, c5, pp int) Ref {
		br1 := b.Conv(name+".1x1", in, c1, 1, 1, 1, 0)
		br2 := b.Conv(name+".3r", in, r3, 1, 1, 1, 0)
		br2 = b.Conv(name+".3x3", br2, c3, 3, 3, 1, 1)
		br3 := b.Conv(name+".5r", in, r5, 1, 1, 1, 0)
		br3 = b.Conv(name+".5x5", br3, c5, 5, 5, 1, 2)
		br4 := b.Pool(name+".pool", in, 3, 1, 1)
		br4 = b.Conv(name+".pp", br4, pp, 1, 1, 1, 0)
		return b.Concat(br1, br2, br3, br4)
	}
	in := b.Input(224, 224, 3)
	x := b.Conv("stem1", in, 64, 7, 7, 2, 3)
	x = b.Pool("pool1", x, 3, 2, 1)
	x = b.Conv("stem2", x, 64, 1, 1, 1, 0)
	x = b.Conv("stem3", x, 192, 3, 3, 1, 1)
	x = b.Pool("pool2", x, 3, 2, 1)
	x = inception("i3a", x, 64, 96, 128, 16, 32, 32)
	x = inception("i3b", x, 128, 128, 192, 32, 96, 64)
	x = b.Pool("pool3", x, 3, 2, 1)
	x = inception("i4a", x, 192, 96, 208, 16, 48, 64)
	x = inception("i4b", x, 160, 112, 224, 24, 64, 64)
	x = inception("i4c", x, 128, 128, 256, 24, 64, 64)
	x = inception("i4d", x, 112, 144, 288, 32, 64, 64)
	x = inception("i4e", x, 256, 160, 320, 32, 128, 128)
	x = b.Pool("pool4", x, 3, 2, 1)
	x = inception("i5a", x, 256, 160, 320, 32, 128, 128)
	x = inception("i5b", x, 384, 192, 384, 48, 128, 128)
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 1000)
	return b.MustBuild()
}

// InceptionResNetV1 builds a reduced-depth Inception-ResNet-v1: full stem
// and reduction blocks, with 3/4/2 repeats of blocks A/B/C (the paper's
// 5/10/5). The branching structure — the property that stresses LP SPM — is
// preserved exactly; only cell repeats are reduced.
func InceptionResNetV1() *Graph {
	b := NewBuilder("inceptionresnet")
	in := b.Input(299, 299, 3)
	x := b.Conv("stem.c1", in, 32, 3, 3, 2, 0)
	x = b.Conv("stem.c2", x, 32, 3, 3, 1, 0)
	x = b.Conv("stem.c3", x, 64, 3, 3, 1, 1)
	x = b.Pool("stem.pool", x, 3, 2, 0)
	x = b.Conv("stem.c4", x, 80, 1, 1, 1, 0)
	x = b.Conv("stem.c5", x, 192, 3, 3, 1, 0)
	x = b.Conv("stem.c6", x, 256, 3, 3, 2, 0)

	blockA := func(name string, in Ref) Ref {
		b1 := b.Conv(name+".b1", in, 32, 1, 1, 1, 0)
		b2 := b.Conv(name+".b2a", in, 32, 1, 1, 1, 0)
		b2 = b.Conv(name+".b2b", b2, 32, 3, 3, 1, 1)
		b3 := b.Conv(name+".b3a", in, 32, 1, 1, 1, 0)
		b3 = b.Conv(name+".b3b", b3, 32, 3, 3, 1, 1)
		b3 = b.Conv(name+".b3c", b3, 32, 3, 3, 1, 1)
		up := b.Conv(name+".up", b.Concat(b1, b2, b3), in.Channels(), 1, 1, 1, 0)
		return b.Add(name+".add", up, in)
	}
	for i := 0; i < 3; i++ {
		x = blockA(fmt.Sprintf("a%d", i), x)
	}
	// Reduction-A
	ra1 := b.Conv("redA.b1", x, 384, 3, 3, 2, 0)
	ra2 := b.Conv("redA.b2a", x, 192, 1, 1, 1, 0)
	ra2 = b.Conv("redA.b2b", ra2, 192, 3, 3, 1, 1)
	ra2 = b.Conv("redA.b2c", ra2, 256, 3, 3, 2, 0)
	ra3 := b.Pool("redA.pool", x, 3, 2, 0)
	x = b.Concat(ra1, ra2, ra3)

	blockB := func(name string, in Ref) Ref {
		b1 := b.Conv(name+".b1", in, 128, 1, 1, 1, 0)
		b2 := b.Conv(name+".b2a", in, 128, 1, 1, 1, 0)
		b2 = b.ConvHW(name+".b2b", b2, 128, 1, 7, 1, 0, 3)
		b2 = b.ConvHW(name+".b2c", b2, 128, 7, 1, 1, 3, 0)
		up := b.Conv(name+".up", b.Concat(b1, b2), in.Channels(), 1, 1, 1, 0)
		return b.Add(name+".add", up, in)
	}
	for i := 0; i < 4; i++ {
		x = blockB(fmt.Sprintf("b%d", i), x)
	}
	// Reduction-B
	rb1 := b.Conv("redB.b1a", x, 256, 1, 1, 1, 0)
	rb1 = b.Conv("redB.b1b", rb1, 384, 3, 3, 2, 0)
	rb2 := b.Conv("redB.b2a", x, 256, 1, 1, 1, 0)
	rb2 = b.Conv("redB.b2b", rb2, 256, 3, 3, 2, 0)
	rb3 := b.Conv("redB.b3a", x, 256, 1, 1, 1, 0)
	rb3 = b.Conv("redB.b3b", rb3, 256, 3, 3, 1, 1)
	rb3 = b.Conv("redB.b3c", rb3, 256, 3, 3, 2, 0)
	rb4 := b.Pool("redB.pool", x, 3, 2, 0)
	x = b.Concat(rb1, rb2, rb3, rb4)

	blockC := func(name string, in Ref) Ref {
		b1 := b.Conv(name+".b1", in, 192, 1, 1, 1, 0)
		b2 := b.Conv(name+".b2a", in, 192, 1, 1, 1, 0)
		b2 = b.ConvHW(name+".b2b", b2, 192, 1, 3, 1, 0, 1)
		b2 = b.ConvHW(name+".b2c", b2, 192, 3, 1, 1, 1, 0)
		up := b.Conv(name+".up", b.Concat(b1, b2), in.Channels(), 1, 1, 1, 0)
		return b.Add(name+".add", up, in)
	}
	for i := 0; i < 2; i++ {
		x = blockC(fmt.Sprintf("c%d", i), x)
	}
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 1000)
	return b.MustBuild()
}

// PNASNet builds a reduced PNASNet-5-like network: a stack of cells whose
// internal structure (parallel separable convolutions and poolings combined
// by adds and concatenation) matches PNASNet's intricate dependency pattern,
// with fewer cell repeats than the full network.
func PNASNet() *Graph {
	b := NewBuilder("pnasnet")
	cell := func(name string, in Ref, f, stride int) Ref {
		s1 := b.SepConv(name+".sep5", in, f, 5, stride, 2)
		s2 := b.SepConv(name+".sep3", in, f, 3, stride, 1)
		c1 := b.Add(name+".add1", s1, s2)
		p1 := b.Pool(name+".maxp", in, 3, stride, 1)
		p1c := b.Conv(name+".pproj", p1, f, 1, 1, 1, 0)
		s3 := b.SepConv(name+".sep7", in, f, 7, stride, 3)
		c2 := b.Add(name+".add2", p1c, s3)
		s4 := b.SepConv(name+".sep3b", c1, f, 3, 1, 1)
		c3 := b.Add(name+".add3", s4, c2)
		return b.Concat(c1, c2, c3)
	}
	in := b.Input(224, 224, 3)
	x := b.Conv("stem", in, 32, 3, 3, 2, 1)
	f := 54
	for stage := 0; stage < 3; stage++ {
		x = cell(fmt.Sprintf("red%d", stage), x, f, 2)
		for i := 0; i < 2; i++ {
			x = cell(fmt.Sprintf("s%d.c%d", stage, i), x, f, 1)
		}
		f *= 2
	}
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 1000)
	return b.MustBuild()
}

// transformerEncoder builds an n-layer Transformer encoder: per layer, Q/K/V
// projections, attention score matmul, softmax, context matmul, output
// projection, residual adds, and a two-matmul feed-forward block. Sequence
// tokens occupy the H dimension; LayerNorms are fused post-ops.
func transformerEncoder(name string, layers, seq, d, dff int) *Graph {
	b := NewBuilder(name)
	x := b.Input(seq, 1, d)
	// Token embedding projection puts the external input behind a weighted
	// layer, as the paper's model parser does.
	h := b.Proj("embed", x, d)
	for i := 0; i < layers; i++ {
		nm := fmt.Sprintf("l%d", i)
		q := b.Proj(nm+".q", h, d)
		k := b.Proj(nm+".k", h, d)
		v := b.Proj(nm+".v", h, d)
		scores := b.MatMulT(nm+".qk", q, k)
		attn := b.Softmax(nm+".sm", scores)
		ctx := b.MatMul(nm+".av", attn, v)
		proj := b.Proj(nm+".o", ctx, d)
		h = b.Add(nm+".add1", proj, h)
		f1 := b.Proj(nm+".ff1", h, dff)
		f2 := b.Proj(nm+".ff2", f1, d)
		h = b.Add(nm+".add2", f2, h)
	}
	b.Proj("head", h, d)
	return b.MustBuild()
}

// Transformer builds the base encoder (6 layers, d=512, dff=2048, seq=128),
// the paper's default DSE workload.
func Transformer() *Graph {
	return transformerEncoder("transformer", 6, 128, 512, 2048)
}

// TransformerLarge builds the large variant used in Fig. 8 (12 layers,
// d=1024, dff=4096, seq=128).
func TransformerLarge() *Graph {
	return transformerEncoder("transformerlarge", 12, 128, 1024, 4096)
}

// TinyCNN builds a small 6-layer CNN used by tests and the quickstart
// example; it exercises conv, pool, residual and FC layer kinds while
// remaining fast to map.
func TinyCNN() *Graph {
	b := NewBuilder("tinycnn")
	in := b.Input(32, 32, 3)
	x := b.Conv("c1", in, 16, 3, 3, 1, 1)
	y := b.Conv("c2", x, 16, 3, 3, 1, 1)
	x = b.Add("add", x, y)
	x = b.Pool("p1", x, 2, 2, 0)
	x = b.Conv("c3", x, 32, 3, 3, 1, 1)
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 10)
	return b.MustBuild()
}

// TinyTransformer builds a 2-layer, d=64 encoder for tests.
func TinyTransformer() *Graph {
	return transformerEncoder("tinytransformer", 2, 16, 64, 128)
}
