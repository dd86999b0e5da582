// Package vecmat provides the small amount of dense linear algebra the
// simulator needs: float64 vectors and dense symmetric matrices with flat,
// cache-friendly storage. It deliberately implements only the operations the
// Ising pipeline uses rather than a general matrix library.
package vecmat

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics on length mismatch.
//
//saim:hotpath
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vecmat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled sets v = v + a*w in place. It panics on length mismatch.
//
//saim:hotpath
func (v Vec) AddScaled(a float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vecmat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Scale multiplies every element of v by a in place.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// SubInto sets dst = a − b element-wise without allocating; the solve
// engine uses it to re-program biases (h = h₀ − Δ(λ)) each iteration.
// It panics on length mismatch.
//
//saim:hotpath
func SubInto(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("vecmat: SubInto length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Sum returns the sum of the elements of v.
func (v Vec) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func (v Vec) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in v, or 0 for an empty vector.
func (v Vec) MaxAbs() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sym is a dense symmetric n×n matrix stored as a full row-major slice.
// Storing the full matrix (rather than a triangle) keeps row access
// contiguous, which is what the Gibbs sweep inner loop needs.
type Sym struct {
	n    int
	data []float64
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	if n < 0 {
		panic("vecmat: NewSym with negative order")
	}
	return &Sym{n: n, data: make([]float64, n*n)}
}

// N returns the order of the matrix.
func (m *Sym) N() int { return m.n }

// At returns element (i, j).
func (m *Sym) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns element (i, j) and, by symmetry, (j, i).
func (m *Sym) Set(i, j int, v float64) {
	m.data[i*m.n+j] = v
	m.data[j*m.n+i] = v
}

// Add accumulates v onto element (i, j) and, by symmetry, (j, i). The
// diagonal is accumulated once.
func (m *Sym) Add(i, j int, v float64) {
	m.data[i*m.n+j] += v
	if i != j {
		m.data[j*m.n+i] += v
	}
}

// Row returns a read-only view of row i. Callers must not modify it except
// through Set/Add, which keep the matrix symmetric.
func (m *Sym) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// Data returns a read-only view of all n² entries, row-major: for kernels
// that walk many rows in one call. Callers must not modify it.
func (m *Sym) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Sym) Clone() *Sym {
	out := NewSym(m.n)
	copy(out.data, m.data)
	return out
}

// Scale multiplies every entry by a in place.
func (m *Sym) Scale(a float64) {
	for i := range m.data {
		m.data[i] *= a
	}
}

// MulVec computes dst = M·x. dst and x must both have length N and must not
// alias.
//
//saim:hotpath
func (m *Sym) MulVec(dst, x Vec) {
	if len(dst) != m.n || len(x) != m.n {
		panic("vecmat: MulVec dimension mismatch")
	}
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		s := 0.0
		for j, rv := range row {
			s += rv * x[j]
		}
		dst[i] = s
	}
}

// QuadForm returns xᵀ·M·x.
//
//saim:hotpath
func (m *Sym) QuadForm(x Vec) float64 {
	if len(x) != m.n {
		panic("vecmat: QuadForm dimension mismatch")
	}
	s := 0.0
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		ri := 0.0
		for j, rv := range row {
			ri += rv * x[j]
		}
		s += x[i] * ri
	}
	return s
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Sym) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// OffDiagDensity returns the fraction of non-zero strictly-upper-triangular
// entries: nnz / (n(n-1)/2). It returns 0 for n < 2.
func (m *Sym) OffDiagDensity() float64 {
	if m.n < 2 {
		return 0
	}
	nnz := 0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.At(i, j) != 0 {
				nnz++
			}
		}
	}
	return float64(nnz) / float64(m.n*(m.n-1)/2)
}

// IsSymmetric reports whether the underlying storage is exactly symmetric.
// It exists for tests and validation; Set/Add preserve symmetry by
// construction.
func (m *Sym) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.data[i*m.n+j] != m.data[j*m.n+i] {
				return false
			}
		}
	}
	return true
}

// Grow returns a new (n+extra)×(n+extra) matrix whose leading block is a
// copy of m and whose new rows/columns are zero. It is used to extend a
// problem with slack variables.
func (m *Sym) Grow(extra int) *Sym {
	if extra < 0 {
		panic("vecmat: Grow with negative extra")
	}
	out := NewSym(m.n + extra)
	for i := 0; i < m.n; i++ {
		copy(out.data[i*out.n:i*out.n+m.n], m.data[i*m.n:(i+1)*m.n])
	}
	return out
}

// GrowVec returns a copy of v extended with extra trailing zeros.
func GrowVec(v Vec, extra int) Vec {
	out := make(Vec, len(v)+extra)
	copy(out, v)
	return out
}
