// Package space computes the sizes of the LP SPM optimization spaces of
// Sec. IV-B: the conservative lower bound of the space defined by Gemini's
// layer-centric encoding and the upper bound of the stripe-based Tangram
// heuristic, using exact big-integer arithmetic.
package space

import (
	"math"
	"math/big"
)

// GeminiLowerBound returns the paper's conservative lower bound for mapping
// N layers onto M cores with D DRAM choices folded into the 4^(N-i) factor:
//
//	M! * sum_{i=0}^{N-1} C(N,i) * C(M-N-1, N-i-1) * 4^(N-i)
func GeminiLowerBound(m, n int) *big.Int {
	total := new(big.Int)
	if n <= 0 || m <= 0 || n > m {
		return total
	}
	for i := 0; i <= n-1; i++ {
		term := new(big.Int).Binomial(int64(n), int64(i))
		c2 := binomial(m-n-1, n-i-1)
		term.Mul(term, c2)
		term.Mul(term, pow4(n-i))
		total.Add(total, term)
	}
	return total.Mul(total, factorial(m))
}

// TangramUpperBound returns N * part(M), the upper bound of the stripe
// heuristic's space, where part is the integer partition function.
func TangramUpperBound(m, n int) *big.Int {
	p := Partitions(m)
	return p.Mul(p, big.NewInt(int64(n)))
}

// Partitions computes the integer partition function p(m) exactly.
func Partitions(m int) *big.Int {
	if m < 0 {
		return new(big.Int)
	}
	// dp[j] = number of partitions of j using parts considered so far.
	dp := make([]*big.Int, m+1)
	for j := range dp {
		dp[j] = new(big.Int)
	}
	dp[0].SetInt64(1)
	for part := 1; part <= m; part++ {
		for j := part; j <= m; j++ {
			dp[j].Add(dp[j], dp[j-part])
		}
	}
	return dp[m]
}

// Log10 approximates log10 of a big integer (0 for non-positive values).
func Log10(v *big.Int) float64 {
	if v.Sign() <= 0 {
		return 0
	}
	bits := v.BitLen()
	if bits <= 53 {
		f, _ := new(big.Float).SetInt(v).Float64()
		return math.Log10(f)
	}
	// v ~ mantissa * 2^(bits-53)
	shifted := new(big.Int).Rsh(v, uint(bits-53))
	f, _ := new(big.Float).SetInt(shifted).Float64()
	return math.Log10(f) + float64(bits-53)*math.Log10(2)
}

// GroupWeight returns the SA group-selection weight proportional to the
// optimization-space size (paper Sec. V-B1); the log keeps weights within
// a usable dynamic range across group sizes.
func GroupWeight(m, n int) float64 {
	w := Log10(GeminiLowerBound(m, n))
	if w < 1 {
		w = 1
	}
	return w
}

func factorial(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}

func binomial(n, k int) *big.Int {
	if k < 0 || n < 0 || k > n {
		return new(big.Int)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

func pow4(e int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(2*e))
}
