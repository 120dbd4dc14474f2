// Package sparse provides the minimal sparse linear algebra needed by
// the quadratic placement stages: symmetric positive-definite systems
// assembled from spring stamps into compressed sparse row form, and a
// Jacobi-preconditioned conjugate gradient solver. Both the assembler
// and the solver own their buffers, so a sequence of same-sized systems
// (one per axis per B2B round) allocates once.
package sparse

import "math"

// CSR is a square matrix with its diagonal held densely and its
// off-diagonal entries in compressed sparse row form: row i's entries
// are Col/Val[RowPtr[i]:RowPtr[i+1]], columns ascending and unique.
type CSR struct {
	N      int
	Diag   []float64
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored entries, diagonal included.
func (a *CSR) NNZ() int { return a.N + len(a.Val) }

// MulVec computes y = A x.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.N {
		panic("sparse: MulVec dimension mismatch")
	}
	a.mulVecDot(x, y)
}

// mulVecDot computes y = A x and returns x·y. Each row is sliced out
// once, so the inner loop carries no bounds check on Col or Val.
func (a *CSR) mulVecDot(x, y []float64) float64 {
	n := a.N
	rp, diag := a.RowPtr[:n+1], a.Diag[:n]
	x, y = x[:n], y[:n]
	dot := 0.0
	lo := rp[0]
	for i := range y {
		hi := rp[i+1]
		cols := a.Col[lo:hi]
		vals := a.Val[lo:hi]
		vals = vals[:len(cols)]
		s := diag[i] * x[i]
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
		dot += x[i] * s
		lo = hi
	}
	return dot
}

// spring is one symmetric off-diagonal stamp: a(i,j) and a(j,i) -= w.
type spring struct {
	i, j int32
	w    float64
}

// Assembler accumulates the stamps of a symmetric system and builds its
// CSR form. Diagonal contributions go straight into a dense vector; the
// off-diagonal ones are kept as a stamp list and bucketed by two
// counting-sort passes (no comparison sort), with duplicate entries
// summed in the order they were stamped, so the matrix is a pure
// function of the stamp stream. Reset starts the next system in the
// same buffers; the CSR returned by Build is valid until then.
type Assembler struct {
	springs []spring
	next    []int32
	tcol    []int32
	tval    []float64
	csr     CSR
}

// Reset clears the assembler for an n x n system.
func (a *Assembler) Reset(n int) {
	if cap(a.csr.Diag) < n {
		a.csr.Diag = make([]float64, n)
		a.csr.RowPtr = make([]int32, n+1)
		a.next = make([]int32, n)
	}
	a.csr.N = n
	a.csr.Diag = a.csr.Diag[:n]
	a.csr.RowPtr = a.csr.RowPtr[:n+1]
	a.next = a.next[:n]
	clear(a.csr.Diag)
	a.springs = a.springs[:0]
}

// AddSym accumulates the symmetric stamp of a spring between i and j
// with weight w: a(i,i)+=w, a(j,j)+=w, a(i,j)-=w, a(j,i)-=w. A spring
// from a node to itself is the zero stamp.
func (a *Assembler) AddSym(i, j int, w float64) {
	if i == j {
		return
	}
	a.csr.Diag[i] += w
	a.csr.Diag[j] += w
	a.springs = append(a.springs, spring{int32(i), int32(j), w})
}

// AddDiag accumulates a(i,i) += w (an anchor to a fixed location).
func (a *Assembler) AddDiag(i int, w float64) { a.csr.Diag[i] += w }

// Build assembles the matrix. Pass one buckets every stamp under both
// of its rows in stamp order. Pass two walks those buckets in row order
// and files each entry under its column; the matrix is symmetric, so
// that transpose is the matrix again, now with every row's columns
// ascending and equal columns still in stamp order. A last sweep sums
// the duplicates in place.
func (a *Assembler) Build() *CSR {
	m := &a.csr
	rp, next := m.RowPtr, a.next
	clear(rp)
	for _, s := range a.springs {
		rp[s.i+1]++
		rp[s.j+1]++
	}
	for i := range next {
		rp[i+1] += rp[i]
	}
	nnz := 2 * len(a.springs)
	if cap(a.tcol) < nnz {
		a.tcol, a.tval = make([]int32, nnz), make([]float64, nnz)
		m.Col, m.Val = make([]int32, nnz), make([]float64, nnz)
	}
	tcol, tval := a.tcol[:nnz], a.tval[:nnz]
	col, val := m.Col[:nnz], m.Val[:nnz]
	copy(next, rp)
	for _, s := range a.springs {
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
	rp[m.N] = out
	m.Col, m.Val = col[:out], val[:out]
	return m
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ||r|| / ||b||
	Converged  bool
	// Breakdown reports that the iteration met a direction of
	// non-positive curvature or a non-finite value: A is not positive
	// definite or the system contains NaN/Inf. x holds the last iterate
	// and must not be trusted.
	Breakdown bool
}

// Solver is a conjugate gradient solver with Jacobi (diagonal)
// preconditioning for symmetric positive-definite systems. It owns its
// work vectors, which are reused by every Solve of the same size.
type Solver struct {
	inv, r, p, ap []float64
}

// Solve solves A x = b to a relative residual of tol in at most maxIter
// iterations. x holds the initial guess on entry and the solution on
// return.
func (s *Solver) Solve(a *CSR, b, x []float64, tol float64, maxIter int) CGResult {
	n := a.N
	if len(b) != n || len(x) != n {
		panic("sparse: Solve dimension mismatch")
	}
	if cap(s.inv) < n {
		s.inv = make([]float64, n)
		s.r = make([]float64, n)
		s.p = make([]float64, n)
		s.ap = make([]float64, n)
	}
	inv, r, p, ap := s.inv[:n], s.r[:n], s.p[:n], s.ap[:n]
	b, x = b[:n], x[:n]
	for i, d := range a.Diag[:n] {
		inv[i] = 1
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	a.mulVecDot(x, r)
	normB, rr, rz := 0.0, 0.0, 0.0
	for i := range r {
		r[i] = b[i] - r[i]
		p[i] = inv[i] * r[i]
		normB += b[i] * b[i]
		rr += r[i] * r[i]
		rz += r[i] * p[i]
	}
	normB = math.Sqrt(normB)
	if normB == 0 {
		normB = 1
	}
	var res CGResult
	for it := 0; ; it++ {
		res.Iterations = it
		res.Residual = math.Sqrt(rr) / normB
		// The two breakdown tests are written so that a NaN fails them.
		if !(res.Residual < math.Inf(1)) {
			res.Breakdown = true
			return res
		}
		if res.Residual <= tol {
			res.Converged = true
			return res
		}
		if it == maxIter {
			return res
		}
		pap := a.mulVecDot(p, ap)
		if !(pap > 0) {
			res.Breakdown = true
			return res
		}
		alpha := rz / pap
		// One pass updates x and r and takes both norms of the new r;
		// z = inv*r is never stored, the direction update recomputes it.
		rr = 0
		rzNew := 0.0
		for i := range r {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rr += ri * ri
			rzNew += ri * (inv[i] * ri)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = inv[i]*r[i] + beta*p[i]
		}
	}
}
