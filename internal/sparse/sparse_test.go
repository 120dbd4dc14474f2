package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// newAssembler returns an assembler reset for an n x n system.
// mulVec computes y = A x.
func mulVec(a *CSR, x, y []float64) { a.mulVecDot(x, y) }

// nnz returns the number of stored entries, diagonal included.
func nnz(a *CSR) int { return a.N + len(a.Val) }

func newAssembler(n int) *Assembler {
	a := &Assembler{}
	a.Reset(n)
	return a
}

// triplet is one (row, col, value) entry of the oracle below.
type triplet struct {
	r, c int
	v    float64
}

// tripletOracle is the assembly this package used before the counting
// sort: every stamp expands into (row, col, value) triplets, diagonal
// included, which are comparison-sorted by (row, col) and summed. The
// sort is stable here, so unlike the original it sums duplicates in
// stamp order.
type tripletOracle struct {
	n int
	t []triplet
}

func (o *tripletOracle) AddSym(i, j int, w float64) {
	o.t = append(o.t, triplet{i, i, w}, triplet{j, j, w}, triplet{i, j, -w}, triplet{j, i, -w})
}

func (o *tripletOracle) AddDiag(i int, w float64) { o.t = append(o.t, triplet{i, i, w}) }

// entries returns the merged matrix entries in (row, col) order.
func (o *tripletOracle) entries() []triplet {
	t := append([]triplet(nil), o.t...)
	sort.SliceStable(t, func(a, b int) bool {
		if t[a].r != t[b].r {
			return t[a].r < t[b].r
		}
		return t[a].c < t[b].c
	})
	var out []triplet
	for _, e := range t {
		if k := len(out) - 1; k >= 0 && out[k].r == e.r && out[k].c == e.c {
			out[k].v += e.v
		} else {
			out = append(out, e)
		}
	}
	return out
}

// entries returns the CSR's stored entries in (row, col) order, the
// diagonal in its sorted place, checking the row invariants on the way.
func entries(t *testing.T, a *CSR) []triplet {
	t.Helper()
	var out []triplet
	for i := 0; i < a.N; i++ {
		diagDone := false
		prev := int32(-1)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.Col[k]
			if c <= prev || int(c) == i {
				t.Fatalf("row %d: column %d after %d (want ascending, unique, off-diagonal)", i, c, prev)
			}
			prev = c
			if !diagDone && int(c) > i {
				out = append(out, triplet{i, i, a.Diag[i]})
				diagDone = true
			}
			out = append(out, triplet{i, int(c), a.Val[k]})
		}
		if !diagDone {
			out = append(out, triplet{i, i, a.Diag[i]})
		}
	}
	return out
}

// Random stamp streams with many repeated pairs: the assembler must
// produce the oracle's pattern and values, and match a dense reference.
func TestAssemblerMatchesOracleAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var asm Assembler
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		asm.Reset(n) // reused across sizes
		oracle := &tripletOracle{n: n}
		dense := make([]float64, n*n)
		for k := rng.Intn(6 * n); k > 0; k-- {
			i, j, w := rng.Intn(n), rng.Intn(n), rng.NormFloat64()
			if rng.Intn(4) == 0 {
				asm.AddDiag(i, w)
				oracle.AddDiag(i, w)
				dense[i*n+i] += w
				continue
			}
			asm.AddSym(i, j, w)
			if i != j { // the oracle's self-spring is w+w-w-w: zero, but a stored entry
				oracle.AddSym(i, j, w)
				dense[i*n+i] += w
				dense[j*n+j] += w
				dense[i*n+j] -= w
				dense[j*n+i] -= w
			}
		}
		for i := 0; i < n; i++ { // every row has a diagonal entry in both
			asm.AddDiag(i, 1)
			oracle.AddDiag(i, 1)
			dense[i*n+i]++
		}
		a := asm.Build()
		got, want := entries(t, a), oracle.entries()
		if len(got) != len(want) || nnz(a) != len(want) {
			t.Fatalf("trial %d: %d entries (NNZ %d), oracle has %d", trial, len(got), nnz(a), len(want))
		}
		for k := range got {
			if got[k].r != want[k].r || got[k].c != want[k].c {
				t.Fatalf("trial %d: entry %d at (%d,%d), oracle (%d,%d)", trial, k, got[k].r, got[k].c, want[k].r, want[k].c)
			}
			if math.Abs(got[k].v-want[k].v) > 1e-12 {
				t.Errorf("trial %d: a(%d,%d) = %v, oracle %v", trial, got[k].r, got[k].c, got[k].v, want[k].v)
			}
			if math.Abs(got[k].v-dense[got[k].r*n+got[k].c]) > 1e-12 {
				t.Errorf("trial %d: a(%d,%d) = %v, dense %v", trial, got[k].r, got[k].c, got[k].v, dense[got[k].r*n+got[k].c])
			}
		}
	}
}

// twoPassBuild is the CSR build this package used before Build worked
// in the CSR's own arrays: the stamps bucketed under both rows into
// temporaries, transposed into the output, duplicates summed in place.
func twoPassBuild(n int, springs []spring, diag []float64) CSR {
	m := CSR{N: n, Diag: append([]float64(nil), diag...), RowPtr: make([]int32, n+1)}
	rp, next := m.RowPtr, make([]int32, n)
	for _, s := range springs {
		rp[s.i+1]++
		rp[s.j+1]++
	}
	for i := range next {
		rp[i+1] += rp[i]
	}
	nnz := 2 * len(springs)
	tcol, tval := make([]int32, nnz), make([]float64, nnz)
	col, val := make([]int32, nnz), make([]float64, nnz)
	copy(next, rp)
	for _, s := range springs {
		k := next[s.i]
		tcol[k], tval[k] = s.j, -s.w
		next[s.i]++
		k = next[s.j]
		tcol[k], tval[k] = s.i, -s.w
		next[s.j]++
	}
	copy(next, rp)
	for i := range next {
		for k := rp[i]; k < rp[i+1]; k++ {
			j := tcol[k]
			col[next[j]], val[next[j]] = int32(i), tval[k]
			next[j]++
		}
	}
	out := int32(0)
	for i := range next {
		lo, hi := rp[i], rp[i+1]
		rp[i] = out
		for k := lo; k < hi; k++ {
			if out > rp[i] && col[out-1] == col[k] {
				val[out-1] += val[k]
			} else {
				col[out], val[out] = col[k], val[k]
				out++
			}
		}
	}
	rp[n] = out
	m.Col, m.Val = col[:out], val[:out]
	return m
}

// Random stamp streams with repeated and self pairs, built in one
// assembler reused across sizes (grown and reserved): every row pointer,
// column and value matches the two-pass build bit for bit, and a
// reserved assembler builds without allocating.
func TestAssemblerBuildMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var asm Assembler
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		stamps := rng.Intn(8 * n)
		if trial%3 == 0 {
			asm.Reserve(n, stamps)
		}
		asm.Reset(n)
		for k := 0; k < stamps; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if len(asm.springs) > 0 && rng.Intn(3) == 0 { // an earlier pair, reversed
				p := asm.springs[rng.Intn(len(asm.springs))]
				i, j = int(p.j), int(p.i)
			}
			asm.AddSym(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10)))
		}
		want := twoPassBuild(n, asm.springs, asm.csr.Diag)
		got := asm.Build()
		if got.N != want.N || len(got.Col) != len(want.Col) || len(got.Val) != len(want.Val) {
			t.Fatalf("trial %d: N %d, %d entries; two-pass N %d, %d entries", trial, got.N, len(got.Col), want.N, len(want.Col))
		}
		for i := range want.RowPtr {
			if got.RowPtr[i] != want.RowPtr[i] {
				t.Fatalf("trial %d: RowPtr[%d] = %d, two-pass %d", trial, i, got.RowPtr[i], want.RowPtr[i])
			}
		}
		for k := range want.Col {
			if got.Col[k] != want.Col[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("trial %d: entry %d is (%d, %v), two-pass (%d, %v)", trial, k, got.Col[k], got.Val[k], want.Col[k], want.Val[k])
			}
		}
		for i := range want.Diag {
			if math.Float64bits(got.Diag[i]) != math.Float64bits(want.Diag[i]) {
				t.Fatalf("trial %d: Diag[%d] = %v, two-pass %v", trial, i, got.Diag[i], want.Diag[i])
			}
		}
	}
	const n, stamps = 50, 400
	asm.Reserve(n, stamps)
	if allocs := testing.AllocsPerRun(5, func() {
		asm.Reset(n)
		for k := 0; k < stamps; k++ {
			asm.AddSym(k%n, (7*k+1)%n, 1)
		}
		asm.Build()
	}); allocs != 0 {
		t.Errorf("a reserved assembler allocates %v times per system, want 0", allocs)
	}
}

// Duplicates are summed in stamp order, whatever a sort would do with
// them: -(1e16) - 1 + 1e16 is 0 in that order and -1 in another.
func TestAssemblerSumsDuplicatesInStampOrder(t *testing.T) {
	a := newAssembler(4)
	a.AddSym(3, 1, 1e16)
	a.AddSym(0, 2, 5)
	a.AddSym(1, 3, 1)
	a.AddSym(3, 1, -1e16)
	m := a.Build()
	y := make([]float64, 4)
	mulVec(m, []float64{0, 1, 0, 0}, y)
	if y[3] != 0 {
		t.Errorf("a(3,1) = %v, want exactly 0 (stamp-order sum)", y[3])
	}
	mulVec(m, []float64{0, 0, 0, 1}, y)
	if y[1] != 0 {
		t.Errorf("a(1,3) = %v, want exactly 0 (stamp-order sum)", y[1])
	}
	if nnz(m) != 4+4 {
		t.Errorf("NNZ = %d, want 8", nnz(m))
	}
}

func TestAssemblerRejectsOutOfRange(t *testing.T) {
	a := newAssembler(2)
	defer func() {
		if recover() == nil {
			t.Error("AddSym out of range did not panic")
		}
	}()
	a.AddSym(2, 0, 1)
}

func TestAddSymProducesLaplacian(t *testing.T) {
	b := newAssembler(3)
	b.AddSym(0, 1, 2)
	b.AddSym(1, 2, 3)
	a := b.Build()
	want := [3][3]float64{{2, -2, 0}, {-2, 5, -3}, {0, -3, 3}}
	for i := 0; i < 3; i++ {
		e := make([]float64, 3)
		e[i] = 1
		row := make([]float64, 3)
		mulVec(a, e, row)
		for j := 0; j < 3; j++ {
			if math.Abs(row[j]-want[j][i]) > 1e-12 {
				t.Errorf("a[%d][%d] = %v, want %v", j, i, row[j], want[j][i])
			}
		}
	}
}

func TestDiag(t *testing.T) {
	b := newAssembler(3)
	b.AddSym(0, 1, 2)
	b.AddDiag(2, 7)
	d := b.Build().Diag
	if d[0] != 2 || d[1] != 2 || d[2] != 7 {
		t.Errorf("Diag = %v", d)
	}
}

func TestCGSolvesIdentity(t *testing.T) {
	n := 10
	b := newAssembler(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 1)
	}
	a := b.Build()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	x := make([]float64, n)
	res := new(Solver).Solve(a, rhs, x, 1e-12, 100)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-rhs[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], rhs[i])
		}
	}
}

func TestCGSolvesAnchoredLaplacian(t *testing.T) {
	// Chain 0-1-2-...-9 with both ends anchored: a standard placement
	// system. Anchors at value 0 and 9 with strong weight; interior
	// should approach linear interpolation.
	n := 10
	b := newAssembler(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	const anchor = 1e6
	b.AddDiag(0, anchor)
	b.AddDiag(n-1, anchor)
	a := b.Build()
	rhs := make([]float64, n)
	rhs[0] = anchor * 0
	rhs[n-1] = anchor * 9
	x := make([]float64, n)
	res := new(Solver).Solve(a, rhs, x, 1e-10, 1000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x[i]-float64(i)) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], float64(i))
		}
	}
}

func TestCGRandomSPD(t *testing.T) {
	// Random diagonally-dominant symmetric system; verify A x = b. One
	// solver value serves systems of different sizes.
	rng := rand.New(rand.NewSource(3))
	var cg Solver
	for _, n := range []int{50, 20, 80} {
		b := newAssembler(n)
		for k := 0; k < 4*n; k++ {
			b.AddSym(rng.Intn(n), rng.Intn(n), rng.Float64())
		}
		for i := 0; i < n; i++ {
			b.AddDiag(i, 1+rng.Float64())
		}
		a := b.Build()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res := cg.Solve(a, rhs, x, 1e-10, 5000)
		if !res.Converged || res.Breakdown {
			t.Fatalf("CG did not converge: %+v", res)
		}
		y := make([]float64, n)
		mulVec(a, x, y)
		for i := range y {
			if math.Abs(y[i]-rhs[i]) > 1e-7 {
				t.Errorf("n=%d residual at %d: %v", n, i, y[i]-rhs[i])
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	b := newAssembler(4)
	for i := 0; i < 4; i++ {
		b.AddDiag(i, 2)
	}
	a := b.Build()
	x := []float64{1, 2, 3, 4}
	res := new(Solver).Solve(a, make([]float64, 4), x, 1e-10, 100)
	if !res.Converged {
		t.Fatalf("CG on zero rhs: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]) > 1e-8 {
			t.Errorf("x[%d] = %v, want 0", i, x[i])
		}
	}
}

func TestCGWarmStart(t *testing.T) {
	// Starting at the exact solution must converge immediately.
	n := 5
	b := newAssembler(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 3)
	}
	a := b.Build()
	rhs := []float64{3, 6, 9, 12, 15}
	x := []float64{1, 2, 3, 4, 5}
	res := new(Solver).Solve(a, rhs, x, 1e-10, 100)
	if res.Iterations != 0 || !res.Converged {
		t.Errorf("warm start took %d iterations", res.Iterations)
	}
}

// A system that is not positive definite, or that holds a NaN, is
// reported as a breakdown and not as a plain unconverged solve.
func TestCGReportsBreakdown(t *testing.T) {
	for name, w := range map[string]float64{"indefinite": -1, "nan": math.NaN()} {
		b := newAssembler(3)
		b.AddSym(0, 1, 1)
		b.AddSym(1, 2, w)
		b.AddDiag(0, 1)
		x := make([]float64, 3)
		res := new(Solver).Solve(b.Build(), []float64{1, 2, 3}, x, 1e-10, 100)
		if !res.Breakdown || res.Converged {
			t.Errorf("%s: %+v, want Breakdown", name, res)
		}
	}
}

func TestCGStopsAtMaxIter(t *testing.T) {
	n := 200
	b := newAssembler(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	b.AddDiag(0, 1)
	rhs := make([]float64, n)
	rhs[n-1] = 1
	res := new(Solver).Solve(b.Build(), rhs, make([]float64, n), 1e-12, 5)
	if res.Iterations != 5 || res.Converged || res.Breakdown {
		t.Errorf("%+v, want 5 iterations, neither converged nor broken down", res)
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	a := newAssembler(3).Build()
	defer func() {
		if recover() == nil {
			t.Error("MulVec mismatched dims did not panic")
		}
	}()
	mulVec(a, make([]float64, 2), make([]float64, 3))
}

func BenchmarkCGChain1000(b *testing.B) {
	n := 1000
	bu := newAssembler(n)
	for i := 0; i+1 < n; i++ {
		bu.AddSym(i, i+1, 1)
	}
	bu.AddDiag(0, 1e6)
	bu.AddDiag(n-1, 1e6)
	a := bu.Build()
	rhs := make([]float64, n)
	rhs[n-1] = 1e6 * float64(n-1)
	x := make([]float64, n)
	var cg Solver
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		clear(x)
		cg.Solve(a, rhs, x, 1e-8, 10000)
	}
}
