// Package asmparity holds a repo-wide test enforcing the assembly
// fallback contract: every dispatcher with a body in a *_amd64.go file
// must have a portable fallback with an identical signature in a
// !amd64-constrained sibling file, and every such pair must be named in
// at least one test file of its package (the differential test that
// proves the two paths agree). Bodyless assembly externs are exempt —
// they exist only on the amd64 side by construction.
//
// A second test scans every *_amd64.s TEXT block that touches a ymm or
// zmm register and rejects any legacy (non-VEX) SSE instruction it runs
// before its last VZEROUPPER, macros expanded; testdata holds a kernel it
// rejects. Such an instruction changes no result, so no differential test
// sees it, but it stalls on the dirty upper register state every time it
// runs.
//
// The checks are tests rather than saimvet analyzers because they need
// files the build would exclude on the current GOARCH (the !amd64
// fallbacks) or never type-checks (assembly), which the export-data
// loader never sees.
package asmparity
