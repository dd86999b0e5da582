package cpufeat

import "testing"

// detectAVX2 has an assembly-backed body on amd64 and a constant-false
// fallback elsewhere; both must be stable (detection is not stateful) and
// agree with the flag captured at init. The differential solver tests
// rely on flipping HasAVX2 at runtime, so this also documents that the
// variable starts out equal to detection, not hardcoded.
func TestDetectAVX2StableAndMatchesInit(t *testing.T) {
	first := detectAVX2()
	if first != HasAVX2 {
		t.Fatalf("detectAVX2() = %v but HasAVX2 = %v at init", first, HasAVX2)
	}
	for i := 0; i < 3; i++ {
		if got := detectAVX2(); got != first {
			t.Fatalf("detectAVX2() unstable: run %d returned %v, first returned %v", i, got, first)
		}
	}
	t.Logf("AVX2 tier: %v", HasAVX2)
}

// detectAVX512 obeys the same contract, and the AVX-512 tier implies the
// AVX2 one: dispatchers fall from AVX-512 to AVX2 to portable, and the
// differential tests force each step. Run with -v to see which tiers this
// CPU has, so a run without AVX-512 shows its legs were skipped.
func TestDetectAVX512StableAndMatchesInit(t *testing.T) {
	first := detectAVX512()
	if first != HasAVX512 {
		t.Fatalf("detectAVX512() = %v but HasAVX512 = %v at init", first, HasAVX512)
	}
	for i := 0; i < 3; i++ {
		if got := detectAVX512(); got != first {
			t.Fatalf("detectAVX512() unstable: run %d returned %v, first returned %v", i, got, first)
		}
	}
	if HasAVX512 && !HasAVX2 {
		t.Fatal("HasAVX512 without HasAVX2")
	}
	t.Logf("AVX-512 tier: %v", HasAVX512)
}
