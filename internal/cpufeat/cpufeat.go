// Package cpufeat detects the small set of CPU features the optional
// assembly kernels require. Detection runs once at init; hot paths read the
// exported flags directly.
//
// The flags are plain variables (not constants) on purpose: differential
// tests flip them to force each kernel tier — AVX-512, AVX2, portable Go —
// on hardware where a wider one would otherwise be taken, proving every
// tier produces identical trajectories. Production code must treat them as
// read-only after init.
package cpufeat

// HasAVX2 reports whether the CPU and operating system support 256-bit AVX2
// integer and FP vector instructions (including OS-enabled YMM state). On
// non-amd64 builds it is always false.
var HasAVX2 = detectAVX2()

// HasAVX512 reports whether the CPU supports AVX512F and AVX512DQ and the
// operating system saves the opmask and full ZMM state, on top of
// everything HasAVX2 requires. Dispatchers try it before HasAVX2. On
// non-amd64 builds it is always false.
var HasAVX512 = detectAVX512()
