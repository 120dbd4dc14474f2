package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random diagonally-dominant SPD system.
func randomSPD(seed int64) (*CSR, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(30)
	var b Assembler
	b.Reset(n)
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j, rng.Float64())
		}
	}
	for i := 0; i < n; i++ {
		b.AddDiag(i, 0.5+rng.Float64())
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return b.Build(), rhs
}

// Property: CG always converges on diagonally-dominant SPD systems and
// the returned residual matches a direct A*x - b check.
func TestQuickCGResidual(t *testing.T) {
	f := func(seed int64) bool {
		a, rhs := randomSPD(seed)
		x := make([]float64, a.N)
		res := new(Solver).Solve(a, rhs, x, 1e-9, 10*a.N)
		if !res.Converged {
			return false
		}
		y := make([]float64, a.N)
		a.MulVec(x, y)
		normR, normB := 0.0, 0.0
		for i := range y {
			d := rhs[i] - y[i]
			normR += d * d
			normB += rhs[i] * rhs[i]
		}
		if normB == 0 {
			return normR < 1e-18
		}
		return math.Sqrt(normR/normB) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the assembled matrix is exactly symmetric when built from
// AddSym/AddDiag stamps: A*e_i dot e_j == A*e_j dot e_i.
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		a, _ := randomSPD(seed)
		rng := rand.New(rand.NewSource(seed + 1))
		for trial := 0; trial < 5; trial++ {
			i, j := rng.Intn(a.N), rng.Intn(a.N)
			ei := make([]float64, a.N)
			ej := make([]float64, a.N)
			ei[i], ej[j] = 1, 1
			yi := make([]float64, a.N)
			yj := make([]float64, a.N)
			a.MulVec(ei, yi)
			a.MulVec(ej, yj)
			if math.Abs(yi[j]-yj[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear.
func TestQuickMulVecLinearity(t *testing.T) {
	f := func(seed int64, alphaRaw int8) bool {
		a, x := randomSPD(seed)
		alpha := float64(alphaRaw) / 16
		ax := make([]float64, a.N)
		a.MulVec(x, ax)
		scaled := make([]float64, a.N)
		for i := range x {
			scaled[i] = alpha * x[i]
		}
		aScaled := make([]float64, a.N)
		a.MulVec(scaled, aScaled)
		for i := range ax {
			if math.Abs(aScaled[i]-alpha*ax[i]) > 1e-9*(1+math.Abs(ax[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
