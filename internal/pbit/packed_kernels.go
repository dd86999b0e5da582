package pbit

import "math/bits"

// Portable bodies of the packed-sweep primitives. On amd64 with AVX2 the
// dispatchers in packed_amd64.go route to hand-written vector kernels;
// these Go bodies are the reference implementation, the non-amd64 path,
// and the differential-test oracle (packed_test.go and
// dispatch_diff_test.go run both and require identical results). Every
// kernel works on one lane window: field blocks of `width` lanes (a
// multiple of 8, at most 64) at stride width.

// packedWantGo evaluates the p-bit update rule for the len(f) lanes of one
// spin: bit k of the result is set iff wantSpin(beta·f[k], nz[k]) == +1.
// It calls the same wantSpin the scalar sweeps use, so the packed decision
// is the scalar decision by construction.
//
//saim:hotpath
func packedWantGo(beta float64, f, nz []float64) uint64 {
	nz = nz[:len(f)]
	var want uint64
	for k, v := range f {
		if wantSpin(beta*v, nz[k]) == 1 {
			want |= 1 << k
		}
	}
	return want
}

// deltaTab maps a (flip nibble, want nibble) pair to the four lane deltas
// of one group: +2 for lanes flipping to +1, −2 for lanes flipping to −1,
// 0 for unflipped lanes (their w·0 = ±0 contributions are invisible to
// every later threshold decision).
var deltaTab = func() (t [256][4]float64) {
	for fl := 0; fl < 16; fl++ {
		for wn := 0; wn < 16; wn++ {
			for b := 0; b < 4; b++ {
				if fl>>b&1 != 0 {
					if wn>>b&1 != 0 {
						t[fl<<4|wn][b] = 2
					} else {
						t[fl<<4|wn][b] = -2
					}
				}
			}
		}
	}
	return
}()

// buildDeltas converts a flip mask into per-lane field deltas via deltaTab
// and returns the number of active 4-lane groups written to groups — flip
// propagation touches only those, so a sparse flip mask costs a few
// groups, not all of the window's. (Single-bit masks never reach here: the
// sweep routes them to the strided single-lane kernels.)
//
//saim:hotpath
func buildDeltas(fl, want uint64, d *[Lanes]float64, groups *[laneGroups]int32) int {
	ng := 0
	for fl != 0 {
		g := bits.TrailingZeros64(fl) >> 2
		nib := fl >> (g * 4) & 0xF
		groups[ng] = int32(g)
		ng++
		t := &deltaTab[nib<<4|(want>>(g*4)&0xF)]
		base := g * 4
		d[base] = t[0]
		d[base+1] = t[1]
		d[base+2] = t[2]
		d[base+3] = t[3]
		fl &^= 0xF << (g * 4)
	}
	return ng
}

// flipApplyDenseGo propagates one spin's flip to every lane's fields over a
// dense J row: fields[j·width+k] += row[j]·d[k] for each lane k of an
// active group. Per lane this is exactly Machine.flip's unconditional row
// walk.
//
//saim:hotpath
func flipApplyDenseGo(row []float64, fields []float64, width int, d *[Lanes]float64, groups []int32) {
	for j, w := range row {
		fj := fields[j*width : j*width+width]
		for _, g := range groups {
			b := int(g) * 4
			fj[b] += w * d[b]
			fj[b+1] += w * d[b+1]
			fj[b+2] += w * d[b+2]
			fj[b+3] += w * d[b+3]
		}
	}
}

// flipApplyCSRGo is flipApplyDenseGo over CSR spans: per lane, exactly
// SparseMachine.flip's stored-coupling walk.
//
//saim:hotpath
func flipApplyCSRGo(cols []int32, ws []float64, fields []float64, width int, d *[Lanes]float64, groups []int32) {
	for k, j := range cols {
		w := ws[k]
		fj := fields[int(j)*width : int(j)*width+width]
		for _, g := range groups {
			b := int(g) * 4
			fj[b] += w * d[b]
			fj[b+1] += w * d[b+1]
			fj[b+2] += w * d[b+2]
			fj[b+3] += w * d[b+3]
		}
	}
}

// flipApplySingleDenseGo propagates a flip of exactly one lane: a strided
// walk adding row[j]·delta at lane offset j·width — instruction for
// instruction the scalar Machine.flip loop, just with strided fields.
// Late-anneal flips are overwhelmingly single-lane, so this path keeps the
// packed machine at per-flip parity with the scalar pool when flips are
// rare.
//
//saim:hotpath
func flipApplySingleDenseGo(row []float64, fieldsLane []float64, width int, delta float64) {
	if len(row) == 0 {
		return
	}
	_ = fieldsLane[(len(row)-1)*width]
	for j, w := range row {
		fieldsLane[j*width] += w * delta
	}
}

// flipApplySingleCSRGo is flipApplySingleDenseGo over CSR spans.
//
//saim:hotpath
func flipApplySingleCSRGo(cols []int32, ws []float64, fieldsLane []float64, width int, delta float64) {
	for k, j := range cols {
		fieldsLane[int(j)*width] += ws[k] * delta
	}
}
