//go:build amd64

package pbit

import "github.com/ising-machines/saim/internal/cpufeat"

// Vector bodies of the packed-sweep primitives: AVX2 (packed_amd64.s) and
// AVX-512 (packed_avx512_amd64.s). Each one is the Go reference kernel
// re-expressed 4 or 8 lanes per vector with the exact scalar operation
// order — same Padé evaluation sequence and separate multiply-then-add
// rounding in packedWant (never FMA), same per-lane accumulation order —
// so the trajectories they produce are bit-identical to the portable path,
// at every window width. The AVX-512 dense pull and flush fuse each term
// J·δ into its add, which rounds exactly as the separate multiply and add
// whenever the product is exact: δ ∈ {+2, −2, 0} and |J| ≤ fusedBound, or
// δ = ±1. Their dispatchers take that as the fused flag and otherwise run
// the AVX2 bodies. sweepDense runs a whole dense window sweep's visits in
// one AVX-512 call under the same flag, and otherwise the Go loop over
// these dispatchers. axpy, the scalar dense machine's flip, and
// packedWant, which the scalar block sweeps call too, serve Machine and
// SparseMachine as well. The dispatchers read cpufeat.HasAVX512 and
// cpufeat.HasAVX2 on every call; packed_test.go, dispatch_diff_test.go
// and scalar_sweep_test.go force each tier and require identical results.

//go:noescape
func packedWantAVX2(beta float64, f, nz *float64, width int) uint64

//go:noescape
func packedWantAVX512(beta float64, f, nz *float64, width int) uint64

//go:noescape
func pullDenseAVX2(row *float64, flips *int32, nf int, deltas *float64, field *float64, width int)

//go:noescape
func pullDenseAVX512(row *float64, flips *int32, nf int, deltas *float64, field *float64, width int)

//go:noescape
func pullDensePairAVX512(row0 *float64, row1 *float64, flips *int32, nf int, deltas *float64, fields *float64, width int)

//go:noescape
func flushDenseAVX2(jdata *float64, n int, flips *int32, nf int, deltas *float64, fields *float64, width int)

//go:noescape
func flushDenseAVX512(jdata *float64, n int, flips *int32, nf int, deltas *float64, fields *float64, width int)

//go:noescape
func sweepDenseAVX512(beta float64, jdata *float64, n int, states *uint64, flips *int32, noise *float64, fields *float64, width int) int

//go:noescape
func axpyAVX2(a float64, x, y *float64, n int)

//go:noescape
func axpyAVX512(a float64, x, y *float64, n int)

//go:noescape
func flipApplyCSRAVX2(cols *int32, ws *float64, nnz int, fields *float64, width int, d *[Lanes]float64, groups *int32, ng int)

//go:noescape
func flipApplySingleCSRAVX2(cols *int32, ws *float64, nnz int, fieldsLane *float64, width int, delta float64)

// packedWant turns one spin's len(f) wantSpin decisions (a window's
// width) into a mask word.
//
//saim:hotpath
func packedWant(beta float64, f, nz []float64) uint64 {
	if !cpufeat.HasAVX2 {
		return packedWantGo(beta, f, nz)
	}
	nz = nz[:len(f)]
	fp, np := &f[0], &nz[0]
	if cpufeat.HasAVX512 {
		return packedWantAVX512(beta, fp, np, len(f))
	}
	return packedWantAVX2(beta, fp, np, len(f))
}

// pullDense adds row[i]·δ_i into one spin's field block for each flipped
// spin i of flips, in list order (δ_i = deltas[i·w : (i+1)·w], w =
// len(field)). fused lets the AVX-512 tier fuse each multiply into its
// add: the caller guarantees every product row[i]·δ_i[k] is exact. The
// list is increasing, so its last entry bounds every index the vector
// kernels read.
//
//saim:hotpath
func pullDense(row []float64, flips []int32, deltas []float64, field []float64, fused bool) {
	if len(flips) == 0 {
		return
	}
	if !cpufeat.HasAVX2 {
		pullDenseGo(row, flips, deltas, field)
		return
	}
	w := len(field)
	last := int(flips[len(flips)-1])
	_ = row[last]
	_ = deltas[last*w+w-1]
	rp, lp, dp, fp := &row[0], &flips[0], &deltas[0], &field[0]
	if cpufeat.HasAVX512 && fused {
		pullDenseAVX512(rp, lp, len(flips), dp, fp, w)
		return
	}
	pullDenseAVX2(rp, lp, len(flips), dp, fp, w)
}

// pullDensePair is pullDense for two adjacent spins at once: fields holds
// their two blocks of w = len(fields)/2 lanes, and the first takes row0's
// terms, the second row1's. The AVX-512 tier walks the list once for both,
// loading each δ block once.
//
//saim:hotpath
func pullDensePair(row0, row1 []float64, flips []int32, deltas []float64, fields []float64, fused bool) {
	if len(flips) == 0 {
		return
	}
	w := len(fields) / 2
	if !cpufeat.HasAVX2 {
		pullDenseGo(row0, flips, deltas, fields[:w])
		pullDenseGo(row1, flips, deltas, fields[w:])
		return
	}
	last := int(flips[len(flips)-1])
	_ = row0[last]
	_ = row1[last]
	_ = deltas[last*w+w-1]
	_ = fields[2*w-1]
	lp, dp := &flips[0], &deltas[0]
	if cpufeat.HasAVX512 && fused {
		pullDensePairAVX512(&row0[0], &row1[0], lp, len(flips), dp, &fields[0], w)
		return
	}
	pullDenseAVX2(&row0[0], lp, len(flips), dp, &fields[0], w)
	pullDenseAVX2(&row1[0], lp, len(flips), dp, &fields[w], w)
}

// flushDense is one sweep's closing pass: each spin j below the last flip
// pulls the flips of its J row that came after it (the AVX-512 tier two
// spins at a time). jdata is J row-major, n = len(fields)/width rows of n;
// fused is pullDense's. The increasing list's last entry bounds the rows,
// columns and blocks the vector kernels read.
//
//saim:hotpath
func flushDense(jdata []float64, flips []int32, deltas []float64, fields []float64, width int, fused bool) {
	if !cpufeat.HasAVX2 {
		flushDenseGo(jdata, flips, deltas, fields, width)
		return
	}
	if len(flips) == 0 || flips[len(flips)-1] == 0 {
		return
	}
	n := len(fields) / width
	last := int(flips[len(flips)-1])
	_ = jdata[(last-1)*n+last]
	_ = fields[last*width+width-1]
	_ = deltas[last*width+width-1]
	jp, lp, dp, fp := &jdata[0], &flips[0], &deltas[0], &fields[0]
	if cpufeat.HasAVX512 && fused {
		flushDenseAVX512(jp, n, lp, len(flips), dp, fp, width)
		return
	}
	flushDenseAVX2(jp, n, lp, len(flips), dp, fp, width)
}

// sweepDense runs one dense window sweep's visits under sweepDenseGo's
// contract, reading the tier once per sweep. On AVX-512, when fused allows
// the fused pulls, one kernel call runs every visit, holding each spin
// pair's field blocks in registers from the pull to the store; every other
// case runs the Go loop.
//
//saim:hotpath
func sweepDense(beta float64, jdata []float64, states []uint64, flips []int32, noise, fields []float64, fused bool) int {
	n := len(states)
	if !cpufeat.HasAVX512 || !fused || n == 0 {
		return sweepDenseGo(beta, jdata, states, flips, noise, fields, fused)
	}
	w := len(fields) / n
	_ = jdata[n*n-1]
	_ = flips[n-1]
	_ = noise[n*w-1]
	_ = fields[n*w-1]
	return sweepDenseAVX512(beta, &jdata[0], n, &states[0], &flips[0], &noise[0], &fields[0], w)
}

// axpy adds x·a into y, element by element (len(y) ≥ len(x)): the scalar
// dense machine's flip propagation, rounded exactly as axpyGo.
//
//saim:hotpath
func axpy(a float64, x, y []float64) {
	if !cpufeat.HasAVX2 || len(x) == 0 {
		axpyGo(a, x, y)
		return
	}
	y = y[:len(x)]
	if cpufeat.HasAVX512 {
		axpyAVX512(a, &x[0], &y[0], len(x))
		return
	}
	axpyAVX2(a, &x[0], &y[0], len(x))
}

// flipApplyCSR adds w·d to every active lane group of each width-lane
// field block along a CSR row.
//
//saim:hotpath
func flipApplyCSR(cols []int32, ws []float64, fields []float64, width int, d *[Lanes]float64, groups []int32) {
	if cpufeat.HasAVX2 {
		if len(cols) == 0 || len(groups) == 0 {
			return
		}
		flipApplyCSRAVX2(&cols[0], &ws[0], len(cols), &fields[0], width, d, &groups[0], len(groups))
		return
	}
	flipApplyCSRGo(cols, ws, fields, width, d, groups)
}

// flipApplySingleCSR propagates a one-lane flip along a CSR row via the
// strided single-lane walk.
//
//saim:hotpath
func flipApplySingleCSR(cols []int32, ws []float64, fieldsLane []float64, width int, delta float64) {
	if cpufeat.HasAVX2 {
		if len(cols) == 0 {
			return
		}
		flipApplySingleCSRAVX2(&cols[0], &ws[0], len(cols), &fieldsLane[0], width, delta)
		return
	}
	flipApplySingleCSRGo(cols, ws, fieldsLane, width, delta)
}
