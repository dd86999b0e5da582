package cpufeat

// cpuid executes the CPUID instruction with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// detectAVX2 checks, in order: OSXSAVE + AVX CPU support, OS-enabled
// XMM/YMM state via XCR0, and the AVX2 feature bit on leaf 7.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xlo, _ := xgetbv()
	if xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// detectAVX512 checks everything detectAVX2 does, then XCR0 bits 5–7
// (opmask, upper halves of ZMM0–15, ZMM16–31) and the AVX512F and
// AVX512DQ bits on leaf 7.
func detectAVX512() bool {
	if !detectAVX2() {
		return false
	}
	xlo, _ := xgetbv()
	if xlo&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}
