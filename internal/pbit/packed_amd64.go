//go:build amd64

package pbit

import "github.com/ising-machines/saim/internal/cpufeat"

// AVX2 bodies of the packed-sweep primitives (packed_amd64.s). Each one is
// the Go reference kernel re-expressed 4 lanes per vector with the exact
// scalar operation order — same Padé evaluation sequence, same separate
// multiply-then-add rounding (never FMA) — so the trajectories they produce
// are bit-identical to the portable path, at every window width.
// packed_test.go and dispatch_diff_test.go run both by toggling
// cpufeat.HasAVX2 and require identical results.

//go:noescape
func packedWantAVX2(beta float64, f, nz *float64, width int) uint64

//go:noescape
func flipApplyDenseAVX2(row *float64, nrow int, fields *float64, width int, d *[Lanes]float64, groups *int32, ng int)

//go:noescape
func flipApplyCSRAVX2(cols *int32, ws *float64, nnz int, fields *float64, width int, d *[Lanes]float64, groups *int32, ng int)

//go:noescape
func flipApplySingleDenseAVX2(row *float64, nrow int, fieldsLane *float64, width int, delta float64)

//go:noescape
func flipApplySingleCSRAVX2(cols *int32, ws *float64, nnz int, fieldsLane *float64, width int, delta float64)

// packedWant turns one spin's len(f) wantSpin decisions (a window's
// width: a multiple of 8, at most 64) into a mask word. The dispatcher
// reads cpufeat.HasAVX2 on every call so tests can force the portable path
// at runtime.
//
//saim:hotpath
func packedWant(beta float64, f, nz []float64) uint64 {
	if cpufeat.HasAVX2 {
		nz = nz[:len(f)]
		return packedWantAVX2(beta, &f[0], &nz[0], len(f))
	}
	return packedWantGo(beta, f, nz)
}

// flipApplyDense adds w·d to every active lane group of each width-lane
// field block along a dense J row.
//
//saim:hotpath
func flipApplyDense(row []float64, fields []float64, width int, d *[Lanes]float64, groups []int32) {
	if cpufeat.HasAVX2 {
		if len(row) == 0 || len(groups) == 0 {
			return
		}
		flipApplyDenseAVX2(&row[0], len(row), &fields[0], width, d, &groups[0], len(groups))
		return
	}
	flipApplyDenseGo(row, fields, width, d, groups)
}

// flipApplyCSR is flipApplyDense over CSR column/weight spans.
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

// flipApplySingleDense propagates a one-lane flip along a dense J row via
// the strided single-lane walk.
//
//saim:hotpath
func flipApplySingleDense(row []float64, fieldsLane []float64, width int, delta float64) {
	if cpufeat.HasAVX2 {
		if len(row) == 0 {
			return
		}
		flipApplySingleDenseAVX2(&row[0], len(row), &fieldsLane[0], width, delta)
		return
	}
	flipApplySingleDenseGo(row, fieldsLane, width, delta)
}

// flipApplySingleCSR is flipApplySingleDense over CSR spans.
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
