// Package tensor implements the dense linear algebra needed by the
// neural-network training substrate: row-major float64 matrices with the
// handful of operations mini-batch SGD requires (matmul, transposed
// matmuls, element-wise maps, row/column reductions).
//
// The package is deliberately minimal — it replaces the role PyTorch's
// tensor library plays in the original EdgeTune prototype, scaled to the
// model sizes this reproduction trains.
package tensor

import (
	"fmt"
	"math"

	"edgetune/internal/sim"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix of the given shape. It panics on non-positive
// dimensions, which always indicate a programming error in the caller.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tensor: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// Randn fills a new matrix with normal(0, std) values drawn from rng.
func Randn(rows, cols int, std float64, rng *sim.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return m.CloneInto(nil) }

// CloneInto copies m into dst (reshaped by Reuse) and returns it.
func (m *Matrix) CloneInto(dst *Matrix) *Matrix {
	out := Reuse(dst, m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view of row r (shared storage).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Reuse reshapes buf to rows×cols in place and returns it, keeping its
// backing array when that has the capacity and growing it otherwise, so
// a caller that owns buf pays for storage only when a shape first
// exceeds every earlier one. A nil buf yields New(rows, cols). The
// contents of the result are unspecified: callers overwrite or clear
// them. It panics on non-positive dimensions, like New.
func Reuse(buf *Matrix, rows, cols int) *Matrix {
	if buf == nil || rows <= 0 || cols <= 0 {
		return New(rows, cols)
	}
	n := rows * cols
	if cap(buf.Data) < n {
		buf.Data = make([]float64, n)
	}
	buf.Rows, buf.Cols, buf.Data = rows, cols, buf.Data[:n]
	return buf
}

// MatMul computes a @ b into a new matrix. Shapes must agree.
func MatMul(a, b *Matrix) *Matrix { return MatMulInto(nil, a, b) }

// MatMulInto computes a @ b into dst (reshaped by Reuse) and returns it.
// dst must not share storage with a or b.
//
// The kernel is register-blocked over k in axpy form: the nonzero
// entries of each row of a are taken four at a time (axpyGroup), so
// each output element is loaded and stored once per four products
// instead of once per product. Every output is still the +0-seeded sum
// of the same products in the same k order as the plain triple loop,
// so the result is bit-identical to it (see DESIGN.md §2.1).
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Reuse(dst, a.Rows, b.Cols)
	clear(out.Data)
	var av [4]float64
	var brows [4][]float64
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		c := 0
		for k, v := range a.Row(i) {
			if v == 0 {
				continue
			}
			av[c], brows[c] = v, b.Row(k)
			if c++; c == 4 {
				axpyGroup(orow, &av, &brows, c)
				c = 0
			}
		}
		axpyGroup(orow, &av, &brows, c)
	}
	return out
}

// MatMulAT computes aᵀ @ b (a transposed).
func MatMulAT(a, b *Matrix) *Matrix { return MatMulATInto(nil, a, b) }

// MatMulATInto computes aᵀ @ b into dst (reshaped by Reuse) and returns
// it. dst must not share storage with a or b.
//
// The kernel walks the rows of a and b four at a time; for each output
// row it gathers the group's nonzero entries of a's column and adds
// their products in one axpyGroup pass. Groups run in k order and each
// group adds its products in k order, so every output is the same
// +0-seeded, k-ordered sum the plain loop computes.
func MatMulATInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch %dx%d / %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Reuse(dst, a.Cols, b.Cols)
	clear(out.Data)
	var av [4]float64
	var bk, brows [4][]float64
	for k := 0; k < a.Rows; k += 4 {
		group := min(4, a.Rows-k)
		for q := range group {
			bk[q] = b.Row(k + q)
		}
		for i := 0; i < a.Cols; i++ {
			c := 0
			for q := range group {
				if v := a.Data[(k+q)*a.Cols+i]; v != 0 {
					av[c], brows[c] = v, bk[q]
					c++
				}
			}
			if c > 0 {
				axpyGroup(out.Row(i), &av, &brows, c)
			}
		}
	}
	return out
}

// axpyGroup adds av[q]·brows[q][j] for q = 0..n-1 (n ≤ 4), in q order,
// to every o[j]. Each o[j] is loaded once and stored once per pass, and
// a pass covers up to four products. Every brows[q] holds at least len(o)
// values.
func axpyGroup(o []float64, av *[4]float64, brows *[4][]float64, n int) {
	switch n {
	case 4:
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := brows[0][:len(o)], brows[1][:len(o)], brows[2][:len(o)], brows[3][:len(o)]
		for j, s := range o {
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			o[j] = s
		}
	case 3:
		a0, a1, a2 := av[0], av[1], av[2]
		b0, b1, b2 := brows[0][:len(o)], brows[1][:len(o)], brows[2][:len(o)]
		for j, s := range o {
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			o[j] = s
		}
	case 2:
		a0, a1 := av[0], av[1]
		b0, b1 := brows[0][:len(o)], brows[1][:len(o)]
		for j, s := range o {
			s += a0 * b0[j]
			s += a1 * b1[j]
			o[j] = s
		}
	case 1:
		a0, b0 := av[0], brows[0][:len(o)]
		for j, bv := range b0 {
			o[j] += a0 * bv
		}
	}
}

// MatMulBT computes a @ bᵀ (b transposed).
func MatMulBT(a, b *Matrix) *Matrix { return MatMulBTInto(nil, a, b) }

// MatMulBTInto computes a @ bᵀ into dst (reshaped by Reuse) and returns
// it. dst must not share storage with a or b.
//
// The kernel is register-blocked over output columns: each pass over a
// row of a feeds four scalar accumulators, one per row of b, and each
// accumulator is the same +0-seeded, k-ordered dot product the plain
// loop computes, so the result is bit-identical to it.
func MatMulBTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch %dx%d / %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := Reuse(dst, a.Rows, b.Rows)
	kn := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kn : (i+1)*kn]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*kn : (j+1)*kn][:len(arow)]
			b1 := b.Data[(j+1)*kn : (j+2)*kn][:len(arow)]
			b2 := b.Data[(j+2)*kn : (j+3)*kn][:len(arow)]
			b3 := b.Data[(j+3)*kn : (j+4)*kn][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*kn : (j+1)*kn][:len(arow)]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// AddRowVec adds vector v (length Cols) to every row of m in place.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Add accumulates other into m in place. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply maps f over every element in place.
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Hadamard multiplies element-wise by other in place.
func (m *Matrix) Hadamard(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: Hadamard shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// ColSums returns the per-column sums (length Cols).
func (m *Matrix) ColSums() []float64 { return m.ColSumsInto(nil) }

// ColSumsInto writes the per-column sums into dst, reusing its storage
// when it has the capacity, and returns them (length Cols).
func (m *Matrix) ColSumsInto(dst []float64) []float64 {
	if cap(dst) < m.Cols {
		dst = make([]float64, m.Cols)
	}
	sums := dst[:m.Cols]
	clear(sums)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// ArgmaxRows returns the index of the maximum element of each row.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestIdx := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bestIdx = v, j
			}
		}
		out[i] = bestIdx
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether two matrices have the same shape and elements
// within tolerance eps.
func Equal(a, b *Matrix, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}
