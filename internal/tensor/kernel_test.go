package tensor

import (
	"fmt"
	"math"
	"testing"

	"edgetune/internal/sim"
)

// The reference kernels are the original unblocked triple loops. The
// blocked kernels must reproduce them bit for bit, so the comparisons
// below use math.Float64bits rather than a tolerance.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// sameBits reports the first element whose bit pattern differs. With
// anyNaN set, two NaNs count as equal whatever their payloads: when two
// NaNs with different payloads meet in an add, x86 keeps the payload of
// whichever operand the register allocator made the destination, and Go
// leaves that choice unspecified (DESIGN.md §2.1). Every other bit,
// including the sign of zero and NaN-versus-number, must still match.
func sameBits(got, want *Matrix, anyNaN bool) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
		return fmt.Errorf("shape %dx%d (len %d), want %dx%d", got.Rows, got.Cols, len(got.Data), want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) == math.Float64bits(w) || anyNaN && math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		return fmt.Errorf("element %d = %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
	}
	return nil
}

// sparse draws a rows×cols normal matrix with roughly the given share
// of entries set to zero, alternating +0 and -0.
func sparse(rows, cols int, zeros float64, rng *sim.RNG) *Matrix {
	m := Randn(rows, cols, 1, rng)
	for i := range m.Data {
		if rng.Float64() < zeros {
			m.Data[i] = math.Copysign(0, float64(i%2)-0.5)
		}
	}
	return m
}

// inf is a variable so that inf-inf below is computed at run time.
var inf = math.Inf(1)

// poison writes ±0, ±Inf and the given NaN into b: the inputs on which
// skipping a zero entry of a is observable (0·Inf and 0·NaN are NaN).
func poison(b *Matrix, nan float64, rng *sim.RNG) {
	specials := []float64{0, math.Copysign(0, -1), inf, -inf, nan}
	for i := range b.Data {
		if rng.Float64() < 0.1 {
			b.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

type kernelCase struct {
	name  string
	ref   func(a, b *Matrix) *Matrix
	alloc func(a, b *Matrix) *Matrix
	into  func(dst, a, b *Matrix) *Matrix
	// shapes maps an m×k·k×n product to the kernel's operand shapes;
	// dense maps a Dense layer's batch, in and out widths to the m, k, n
	// of the product this kernel computes in training.
	shapes func(m, k, n int) (ar, ac, br, bc int)
	dense  func(batch, in, out int) (m, k, n int)
}

var kernelCases = []kernelCase{
	{"MatMul", refMatMul, MatMul, MatMulInto,
		func(m, k, n int) (int, int, int, int) { return m, k, k, n },
		func(batch, in, out int) (int, int, int) { return batch, in, out }}, // forward: x W
	{"MatMulAT", refMatMulAT, MatMulAT, MatMulATInto,
		func(m, k, n int) (int, int, int, int) { return k, m, k, n },
		func(batch, in, out int) (int, int, int) { return in, batch, out }}, // weight gradient: xᵀ g
	{"MatMulBT", refMatMulBT, MatMulBT, MatMulBTInto,
		func(m, k, n int) (int, int, int, int) { return m, k, n, k },
		func(batch, in, out int) (int, int, int) { return batch, out, in }}, // input gradient: g Wᵀ
}

// TestKernelsBitIdentical compares every kernel and its Into variant
// with the reference loop over shapes whose dimensions hit every
// remainder mod 4, rows ≥ 512, three sparsities of a, and b with and
// without ±0/±Inf/NaN, writing into a nil, an exact-size, a too-small
// and an oversized destination. The NaN planted in b is either the
// hardware's default NaN, the only one arithmetic produces (inf-inf,
// 0·inf), where every bit must match, or a NaN with a payload, where
// only the payload may differ.
func TestKernelsBitIdentical(t *testing.T) {
	dims := [][3]int{
		{1, 1, 1}, {1, 5, 2}, {3, 7, 6}, {5, 9, 11}, {4, 8, 12},
		{6, 13, 3}, {32, 32, 24}, {32, 48, 128}, {513, 10, 7}, {520, 33, 5},
	}
	rng := sim.NewRNG(11)
	for _, kc := range kernelCases {
		for _, d := range dims {
			ar, ac, br, bc := kc.shapes(d[0], d[1], d[2])
			for _, zeros := range []float64{0, 0.5, 0.95} {
				for _, special := range []string{"none", "default-nan", "payload-nan"} {
					a := sparse(ar, ac, zeros, rng)
					b := Randn(br, bc, 1, rng)
					switch special {
					case "default-nan":
						poison(b, inf-inf, rng)
					case "payload-nan":
						poison(b, math.NaN(), rng)
					}
					anyNaN := special == "payload-nan"
					want := kc.ref(a, b)
					n := want.Rows * want.Cols
					dsts := map[string]*Matrix{
						"nil":       nil,
						"exact":     Randn(want.Rows, want.Cols, 1, rng),
						"small":     {Rows: 1, Cols: 1, Data: []float64{math.NaN()}},
						"oversized": Randn(1, n+9, 1, rng),
					}
					for dname, dst := range dsts {
						got := kc.into(dst, a, b)
						if dst != nil && got != dst {
							t.Errorf("%s into %s dst returned a different matrix", kc.name, dname)
						}
						if err := sameBits(got, want, anyNaN); err != nil {
							t.Fatalf("%s %v zeros=%v special=%s dst=%s: %v", kc.name, d, zeros, special, dname, err)
						}
						if dname == "oversized" && cap(got.Data) != n+9 {
							t.Errorf("%s reallocated an oversized dst", kc.name)
						}
					}
					if err := sameBits(kc.alloc(a, b), want, anyNaN); err != nil {
						t.Fatalf("%s %v zeros=%v special=%s: %v", kc.name, d, zeros, special, err)
					}
				}
			}
		}
	}
}

// TestKernelsReuseAcrossShapes drives one destination through a shrink
// and a regrow, as a layer's workspace sees a short final batch: stale
// contents from the larger shape must never leak into the result.
func TestKernelsReuseAcrossShapes(t *testing.T) {
	rng := sim.NewRNG(12)
	for _, kc := range kernelCases {
		var dst *Matrix
		for _, m := range []int{37, 5, 37, 1} {
			ar, ac, br, bc := kc.shapes(m, 9, 6)
			a := sparse(ar, ac, 0.5, rng)
			b := Randn(br, bc, 1, rng)
			dst = kc.into(dst, a, b)
			if err := sameBits(dst, kc.ref(a, b), false); err != nil {
				t.Fatalf("%s rows=%d: %v", kc.name, m, err)
			}
		}
	}
}

func TestReuse(t *testing.T) {
	if m := Reuse(nil, 2, 3); m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("Reuse(nil) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	buf := New(4, 4)
	backing := &buf.Data[0]
	if m := Reuse(buf, 3, 5); m != buf || len(m.Data) != 15 || &m.Data[0] != backing {
		t.Error("Reuse did not reshape a large-enough buffer in place")
	}
	if m := Reuse(buf, 5, 5); m != buf || len(m.Data) != 25 || m.Rows != 5 {
		t.Error("Reuse did not grow a too-small buffer in place")
	}
	var zero Matrix
	if m := Reuse(&zero, 2, 2); m != &zero || len(zero.Data) != 4 {
		t.Error("Reuse did not fill a zero-value matrix")
	}
	src, _ := FromSlice(1, 3, []float64{1, 2, 3})
	if m := src.CloneInto(buf); m != buf || !Equal(m, src, 0) || &m.Data[0] == &src.Data[0] {
		t.Error("CloneInto did not copy into the buffer")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reuse with a non-positive shape did not panic")
		}
	}()
	Reuse(buf, 0, 3)
}

func TestIntoKernelsDoNotAllocate(t *testing.T) {
	rng := sim.NewRNG(13)
	a := sparse(32, 48, 0.5, rng)
	w := Randn(48, 24, 1, rng)
	g := Randn(32, 24, 1, rng)
	y, dw, dx := New(32, 24), New(48, 24), New(32, 48)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulInto(y, a, w)
		MatMulATInto(dw, a, g)
		MatMulBTInto(dx, g, w)
	})
	if allocs != 0 {
		t.Errorf("Into kernels allocate %v times per call set, want 0", allocs)
	}
}

// The kernel benchmarks run each kernel and its reference at the Dense
// layer shapes the workloads train (batch, in, out), with half the
// entries of a zero as after a ReLU; a blocked variant ships only where
// it beats the reference here.
var benchShapes = [][3]int{{32, 32, 32}, {32, 32, 24}, {32, 48, 128}, {256, 128, 48}}

func BenchmarkKernels(b *testing.B) {
	for _, kc := range kernelCases {
		for _, ref := range []bool{false, true} {
			name := kc.name
			if ref {
				name += "Ref"
			}
			for _, d := range benchShapes {
				ar, ac, br, bc := kc.shapes(kc.dense(d[0], d[1], d[2]))
				rng := sim.NewRNG(1)
				x := sparse(ar, ac, 0.5, rng)
				y := Randn(br, bc, 1, rng)
				dst := kc.into(nil, x, y)
				b.Run(fmt.Sprintf("%s/%dx%dx%d", name, d[0], d[1], d[2]), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if ref {
							kc.ref(x, y)
						} else {
							kc.into(dst, x, y)
						}
					}
				})
			}
		}
	}
}
