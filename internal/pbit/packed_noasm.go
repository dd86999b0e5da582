//go:build !amd64

package pbit

// Non-amd64 builds run the portable reference kernels directly.

//saim:hotpath
func packedWant(beta float64, f, nz []float64) uint64 {
	return packedWantGo(beta, f, nz)
}

//saim:hotpath
func pullDense(row []float64, flips []int32, deltas []float64, field []float64, fused bool) {
	pullDenseGo(row, flips, deltas, field)
}

//saim:hotpath
func pullDensePair(row0, row1 []float64, flips []int32, deltas []float64, fields []float64, fused bool) {
	w := len(fields) / 2
	pullDenseGo(row0, flips, deltas, fields[:w])
	pullDenseGo(row1, flips, deltas, fields[w:])
}

//saim:hotpath
func flushDense(jdata []float64, flips []int32, deltas []float64, fields []float64, width int, fused bool) {
	flushDenseGo(jdata, flips, deltas, fields, width)
}

//saim:hotpath
func sweepDense(beta float64, jdata []float64, states []uint64, flips []int32, noise, fields []float64, fused bool) int {
	return sweepDenseGo(beta, jdata, states, flips, noise, fields, fused)
}

//saim:hotpath
func axpy(a float64, x, y []float64) {
	axpyGo(a, x, y)
}

//saim:hotpath
func flipApplyCSR(cols []int32, ws []float64, fields []float64, width int, d *[Lanes]float64, groups []int32) {
	flipApplyCSRGo(cols, ws, fields, width, d, groups)
}

//saim:hotpath
func flipApplySingleCSR(cols []int32, ws []float64, fieldsLane []float64, width int, delta float64) {
	flipApplySingleCSRGo(cols, ws, fieldsLane, width, delta)
}
