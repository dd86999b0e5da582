//go:build !amd64

package cpufeat

// detectAVX2 is always false off amd64; the portable kernels run instead.
func detectAVX2() bool { return false }

// detectAVX512 is always false off amd64.
func detectAVX512() bool { return false }
