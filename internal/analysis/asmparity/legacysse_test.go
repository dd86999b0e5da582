package asmparity

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A legacy SSE instruction (one without the VEX or EVEX encoding) that
// runs while a ymm or zmm register's upper half is dirty costs a state
// transition, or on newer cores a false dependency on the whole register,
// on every execution. Nothing else notices: the results are the same, so
// every differential test passes while the kernel runs several times
// slower. These tests keep such instructions out of every assembly kernel
// that touches a Y or Z register, up to the kernel's last VZEROUPPER.

var (
	// xReg matches an xmm operand. An instruction naming one is SSE
	// unless its mnemonic carries the VEX/EVEX V prefix.
	xReg = regexp.MustCompile(`\bX([0-9]|1[0-5])\b`)
	// yzReg matches a ymm or zmm operand.
	yzReg = regexp.MustCompile(`\b[YZ]([0-9]|[12][0-9]|3[01])\b`)
	// ident matches a whole identifier, for macro parameter substitution.
	ident = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// macro is one #define: its parameter names (nil for an object-like
// macro) and its body, continuation lines joined.
type macro struct {
	params []string
	body   string
}

// asmLines joins backslash continuations and strips // comments.
func asmLines(src string) []string {
	var out []string
	var cur strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimRight(line, " \t\r")
		if strings.HasSuffix(line, `\`) {
			cur.WriteString(strings.TrimSuffix(line, `\`))
			cur.WriteString(" ; ")
			continue
		}
		cur.WriteString(line)
		out = append(out, cur.String())
		cur.Reset()
	}
	return out
}

// splitArgs splits a macro invocation's argument list at top-level commas.
func splitArgs(s string) []string {
	var args []string
	depth, start := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(args, strings.TrimSpace(s[start:]))
}

// expand returns the statements of one source statement, macros expanded
// (parameters substituted as whole identifiers), in execution order.
func expand(stmt string, macros map[string]macro, depth int) []string {
	stmt = strings.Join(strings.Fields(stmt), " ")
	if stmt == "" || depth > 16 {
		return nil
	}
	name := ident.FindString(stmt)
	m, ok := macros[name]
	if !ok || !strings.HasPrefix(stmt, name) {
		return []string{stmt}
	}
	body := m.body
	if m.params != nil {
		open := strings.Index(stmt, "(")
		closing := strings.LastIndex(stmt, ")")
		if open < 0 || closing < open {
			return []string{stmt}
		}
		args := splitArgs(stmt[open+1 : closing])
		sub := map[string]string{}
		for i, p := range m.params {
			if i < len(args) {
				sub[p] = args[i]
			}
		}
		body = ident.ReplaceAllStringFunc(body, func(id string) string {
			if a, ok := sub[id]; ok {
				return a
			}
			return id
		})
	}
	var out []string
	for _, s := range strings.Split(body, ";") {
		out = append(out, expand(s, macros, depth+1)...)
	}
	return out
}

// legacySSE returns one finding per non-VEX SSE instruction that a TEXT
// block touching a Y or Z register executes before its last VZEROUPPER.
func legacySSE(src string) []string {
	lines := asmLines(src)
	macros := map[string]macro{}
	for _, l := range lines {
		t := strings.TrimSpace(l)
		if !strings.HasPrefix(t, "#define") {
			continue
		}
		t = strings.TrimSpace(strings.TrimPrefix(t, "#define"))
		name := ident.FindString(t)
		rest := t[len(name):]
		m := macro{body: rest}
		if strings.HasPrefix(rest, "(") {
			closing := strings.Index(rest, ")")
			m.params = splitArgs(rest[1:closing])
			m.body = rest[closing+1:]
		}
		macros[name] = m
	}

	var findings []string
	var block string
	var stmts []string
	flush := func() {
		if block == "" {
			return
		}
		// Without a VZEROUPPER every statement counts as before it.
		touches, end := false, len(stmts)
		for i, s := range stmts {
			if yzReg.MatchString(s) {
				touches = true
			}
			if strings.HasPrefix(s, "VZEROUPPER") {
				end = i
			}
		}
		if touches {
			for _, s := range stmts[:end] {
				mnem := ident.FindString(s)
				if !strings.HasPrefix(mnem, "V") && xReg.MatchString(s) {
					findings = append(findings, fmt.Sprintf("%s: %s", block, s))
				}
			}
		}
		block, stmts = "", nil
	}
	for _, l := range lines {
		t := strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(t, "TEXT"):
			flush()
			block = strings.TrimSuffix(strings.Fields(t)[1], ",")
			continue
		case t == "", strings.HasPrefix(t, "#"), strings.HasPrefix(t, "DATA"), strings.HasPrefix(t, "GLOBL"):
			continue
		}
		if block == "" {
			continue
		}
		for _, s := range strings.Split(t, ";") {
			for _, e := range expand(s, macros, 0) {
				if e != "" && !strings.HasSuffix(e, ":") {
					stmts = append(stmts, e)
				}
			}
		}
	}
	flush()
	return findings
}

// TestNoLegacySSEInVectorKernels scans every *_amd64.s file of the
// module.
func TestNoLegacySSEInVectorKernels(t *testing.T) {
	root := moduleRoot(t)
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_amd64.s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no *_amd64.s files found — the walk is broken, not the tree")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, f)
		for _, finding := range legacySSE(string(src)) {
			t.Errorf("%s: legacy SSE before VZEROUPPER in a ymm/zmm kernel — use the V form: %s", filepath.ToSlash(rel), finding)
		}
	}
}

// The checker rejects the fixture's kernel, whose scalar tail (in a macro
// and inline) uses MULSD and ADDSD after ymm work, and accepts its twin
// that uses VMULSD and VADDSD and reads its result with a legacy MOVQ
// only after VZEROUPPER.
func TestNoLegacySSEFixtureRejected(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "legacy_sse_amd64.s"))
	if err != nil {
		t.Fatal(err)
	}
	got := legacySSE(string(src))
	want := []string{
		"·axpyLegacyTail(SB): MOVSD (SI)(AX*8), X1",
		"·axpyLegacyTail(SB): MULSD X0, X1",
		"·axpyLegacyTail(SB): ADDSD (DI)(AX*8), X1",
		"·axpyLegacyTail(SB): MOVSD X1, (DI)(AX*8)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
