package space

import (
	"math/big"
	"testing"
)

func TestPartitionsKnownValues(t *testing.T) {
	// OEIS A000041.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627, 36: 17977, 100: 0}
	for m, w := range want {
		if m == 100 {
			continue
		}
		if got := Partitions(m); got.Int64() != w {
			t.Errorf("p(%d) = %v, want %d", m, got, w)
		}
	}
	// p(100) = 190569292.
	if got := Partitions(100); got.Cmp(big.NewInt(190569292)) != 0 {
		t.Errorf("p(100) = %v", got)
	}
	if Partitions(-1).Sign() != 0 {
		t.Error("p(-1) should be 0")
	}
}

func TestGeminiLowerBoundSmall(t *testing.T) {
	// N=1, M=2: sum has single term i=0: C(1,0)*C(0,0)*4^1 = 4; times 2! = 8.
	if got := GeminiLowerBound(2, 1); got.Int64() != 8 {
		t.Errorf("LB(2,1) = %v, want 8", got)
	}
	// Degenerate inputs.
	if GeminiLowerBound(0, 1).Sign() != 0 || GeminiLowerBound(4, 5).Sign() != 0 {
		t.Error("degenerate bounds should be 0")
	}
}

func TestGeminiDwarfsTangram(t *testing.T) {
	// The paper's central size claim: the encoding's space vastly exceeds
	// the stripe heuristic's for realistic M, N.
	cases := []struct{ m, n int }{{16, 4}, {36, 8}, {36, 18}, {64, 12}, {128, 16}}
	for _, c := range cases {
		adv := Log10(GeminiLowerBound(c.m, c.n)) - Log10(TangramUpperBound(c.m, c.n))
		if adv < 3 { // at least a 1000x gap
			t.Errorf("M=%d N=%d advantage = 10^%.1f, want >= 10^3", c.m, c.n, adv)
		}
	}
}

func TestLowerBoundGrowsWithM(t *testing.T) {
	prev := new(big.Int)
	for m := 8; m <= 64; m *= 2 {
		v := GeminiLowerBound(m, 4)
		if v.Cmp(prev) <= 0 {
			t.Errorf("LB(%d,4) = %v not larger than previous", m, v)
		}
		prev = v
	}
}

func TestLog10Accuracy(t *testing.T) {
	if got := Log10(big.NewInt(1000)); got < 2.999 || got > 3.001 {
		t.Errorf("Log10(1000) = %v", got)
	}
	// 2^200: log10 = 200*log10(2) = 60.205...
	v := new(big.Int).Lsh(big.NewInt(1), 200)
	if got := Log10(v); got < 60.2 || got > 60.21 {
		t.Errorf("Log10(2^200) = %v", got)
	}
	if Log10(big.NewInt(0)) != 0 || Log10(big.NewInt(-5)) != 0 {
		t.Error("non-positive values should log to 0")
	}
}

func TestGroupWeightPositive(t *testing.T) {
	if w := GroupWeight(36, 6); w <= 1 {
		t.Errorf("weight = %v, want > 1", w)
	}
	if w := GroupWeight(1, 1); w < 1 {
		t.Errorf("degenerate weight = %v, want >= 1", w)
	}
	if GroupWeight(36, 12) <= GroupWeight(36, 2) {
		t.Error("more layers should mean a larger space weight")
	}
}

func TestFactorialAndBinomial(t *testing.T) {
	if factorial(5).Int64() != 120 {
		t.Error("5! wrong")
	}
	if factorial(0).Int64() != 1 {
		t.Error("0! should be 1")
	}
	if binomial(5, 2).Int64() != 10 {
		t.Error("C(5,2) wrong")
	}
	if binomial(3, 5).Sign() != 0 || binomial(3, -1).Sign() != 0 {
		t.Error("out-of-range binomial should be 0")
	}
	if pow4(3).Int64() != 64 {
		t.Error("4^3 wrong")
	}
}
