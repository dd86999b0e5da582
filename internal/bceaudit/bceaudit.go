// Package bceaudit pins bounds-check elimination in the hot kernels.
//
// The Go compiler reports every bounds check it could not eliminate when
// a package builds with -gcflags=-d=ssa/check_bce. The audit builds each
// //saim:hotpath-bearing package that way, keeps only diagnostics inside
// hotpath functions, folds them into per-(file, function, kind) counts,
// and diffs the result against the package's committed bce_allow.txt.
// Any drift — a new bounds check the compiler stopped eliminating, or a
// stale allowlist after an improvement — fails the audit; regenerate the
// allowlists with SAIM_BCE_UPDATE=1 after verifying the change is
// intentional (the packed kernels' wins live and die by these checks).
//
// The build cache replays compiler diagnostics on cache hits, so the
// audit stays cheap in repeated local runs.
package bceaudit

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// AllowlistName is the committed allowlist file in each audited package.
const AllowlistName = "bce_allow.txt"

const directive = "saim:hotpath"

// HotpathPackages returns module-relative directories (sorted) declaring
// at least one function whose doc comment carries the //saim:hotpath
// directive. A mere mention of the directive in prose or a string
// literal does not make a package hot.
func HotpathPackages(root string) ([]string, error) {
	candidate := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if candidate[dir] {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("//"+directive)) {
			candidate[dir] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dirs []string
	for dir := range candidate {
		ranges, err := hotpathRanges(dir)
		if err != nil {
			return nil, err
		}
		if len(ranges) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// funcRange is one hotpath function's file-local line span.
type funcRange struct {
	name       string
	start, end int
}

// hotpathRanges maps each file base name in dir to the line spans of its
// //saim:hotpath functions.
func hotpathRanges(dir string) (map[string][]funcRange, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]funcRange{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			hot := false
			for _, c := range fn.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), directive) {
					hot = true
					break
				}
			}
			if !hot {
				continue
			}
			out[name] = append(out[name], funcRange{
				name:  fn.Name.Name,
				start: fset.Position(fn.Pos()).Line,
				end:   fset.Position(fn.End()).Line,
			})
		}
	}
	return out, nil
}

var diagRe = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: Found (Is(?:Slice)?InBounds)$`)

// Audit compiles the package at the module-relative dir with
// ssa/check_bce and returns the normalized report: sorted
// "file function kind count" lines covering only //saim:hotpath
// functions.
func Audit(root, relDir string) ([]string, error) {
	ranges, err := hotpathRanges(filepath.Join(root, relDir))
	if err != nil {
		return nil, err
	}
	pattern := "./" + relDir
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags="+pattern+"=-d=ssa/check_bce", pattern)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build %s: %v\n%s", relDir, err, stderr.String())
	}

	counts := map[string]int{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		m := diagRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		base := filepath.Base(m[1])
		var lineNo int
		fmt.Sscanf(m[2], "%d", &lineNo)
		for _, fr := range ranges[base] {
			if lineNo >= fr.start && lineNo <= fr.end {
				counts[fmt.Sprintf("%s %s %s", base, fr.name, m[3])]++
				break
			}
		}
	}
	report := make([]string, 0, len(counts))
	for k, n := range counts {
		report = append(report, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(report)
	return report, nil
}

// Diff compares a report against allowlist content and returns
// human-readable drift lines (empty means the audit passes). Both sides
// are treated as exact sets: a vanished bounds check is drift too — it
// means the allowlist overstates the cost and must be regenerated so the
// improvement is pinned.
func Diff(allow, got []string) []string {
	a := map[string]bool{}
	for _, l := range allow {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			a[l] = true
		}
	}
	g := map[string]bool{}
	for _, l := range got {
		g[l] = true
	}
	var drift []string
	for _, l := range got {
		if !a[l] {
			drift = append(drift, "new bounds check (not in allowlist): "+l)
		}
	}
	for l := range a {
		if !g[l] {
			drift = append(drift, "stale allowlist entry (check no longer emitted): "+l)
		}
	}
	sort.Strings(drift)
	return drift
}

// ReadAllowlist loads a package's committed allowlist. A missing file
// returns an error: every hotpath package must commit one, even if
// empty.
func ReadAllowlist(root, relDir string) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(root, relDir, AllowlistName))
	if err != nil {
		return nil, err
	}
	return strings.Split(string(src), "\n"), nil
}

// WriteAllowlist regenerates a package's allowlist from a fresh report.
func WriteAllowlist(root, relDir string, report []string) error {
	var b strings.Builder
	b.WriteString("# Bounds checks the compiler still emits inside //saim:hotpath functions\n")
	b.WriteString("# of this package, as 'file function kind count'. Regenerate with\n")
	b.WriteString("#   SAIM_BCE_UPDATE=1 go test ./internal/bceaudit\n")
	b.WriteString("# after verifying any change is intentional; see internal/bceaudit.\n")
	for _, l := range report {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return os.WriteFile(filepath.Join(root, relDir, AllowlistName), []byte(b.String()), 0o644)
}
