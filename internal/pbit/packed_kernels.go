package pbit

import "math/bits"

// Portable bodies of the packed-sweep primitives, and of axpy, the scalar
// dense machine's flip. On amd64 the dispatchers in packed_amd64.go route
// to hand-written AVX-512 or AVX2 kernels; these Go bodies are the
// reference implementation, the non-amd64 path, and the differential-test
// oracle (packed_test.go, dispatch_diff_test.go and scalar_sweep_test.go
// run every tier and require identical results). Every packed kernel
// works on one lane window: field blocks of `width` lanes (8, 16, 24, 32
// or 64) at stride width.

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
// 0 for unflipped lanes (their J·0 = ±0 contributions are invisible to
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

// deltaBlock writes one flipped spin's per-lane deltas over its spent
// noise block: +2 for lanes flipping to +1, −2 for lanes flipping to −1,
// 0 elsewhere, one deltaTab row per 4-lane group of the window.
//
//saim:hotpath
func deltaBlock(fl, want uint64, dst []float64) {
	for g := 0; g+4 <= len(dst); g += 4 {
		*(*[4]float64)(dst[g:]) = deltaTab[fl>>g&0xF<<4|want>>g&0xF]
	}
}

// pullDenseGo brings one spin's field block up to date with this sweep's
// earlier flips: field[k] += row[i]·deltas[i·w+k] for each flipped spin i
// in list order, w = len(field). Per lane that is the scalar machine's
// flip propagation into this spin, in the scalar order.
//
//saim:hotpath
func pullDenseGo(row []float64, flips []int32, deltas []float64, field []float64) {
	w := len(field)
	for _, i := range flips {
		c := row[i]
		d := deltas[int(i)*w : int(i)*w+w]
		for k := range field {
			field[k] += c * d[k]
		}
	}
}

// flushDenseGo finishes a sweep: every spin j's field block takes the
// flips that came after j's visit, in visit order — pullDenseGo over J
// row j and the list entries past j, for each j below the last flip.
// jdata is J row-major, n = len(fields)/width rows of n.
//
//saim:hotpath
func flushDenseGo(jdata []float64, flips []int32, deltas []float64, fields []float64, width int) {
	n := len(fields) / width
	p := 0
	for j := 0; ; j++ {
		for p < len(flips) && int(flips[p]) <= j {
			p++
		}
		if p == len(flips) {
			return
		}
		pullDenseGo(jdata[j*n:j*n+n], flips[p:], deltas, fields[j*width:j*width+width])
	}
}

// buildDeltas converts a flip mask into per-lane field deltas via deltaTab
// and returns the number of active 4-lane groups written to groups — flip
// propagation touches only those, so a sparse flip mask costs a few
// groups, not all of the window's. (Single-bit masks never reach here: the
// CSR sweep routes them to the strided single-lane kernels.)
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

// axpyGo adds x·a into y, element by element (len(y) ≥ len(x)): the
// scalar dense machine's flip propagation, y[j] += x[j]·a, each product
// and sum rounded on its own (gc emits MULSD then ADDSD, at every GOAMD64
// level).
//
//saim:hotpath
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for j, v := range x {
		y[j] += v * a
	}
}

// flipApplyCSRGo propagates one spin's flip to every lane's fields over
// CSR spans: fields[cols[e]·width+k] += ws[e]·d[k] for each lane k of an
// active group. Per lane this is exactly SparseMachine.flip's
// stored-coupling walk.
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

// flipApplySingleCSRGo propagates a flip of exactly one lane: a strided
// walk adding ws[e]·delta at lane offset cols[e]·width — instruction for
// instruction SparseMachine.flip's loop, just with strided fields.
//
//saim:hotpath
func flipApplySingleCSRGo(cols []int32, ws []float64, fieldsLane []float64, width int, delta float64) {
	for k, j := range cols {
		fieldsLane[int(j)*width] += ws[k] * delta
	}
}
