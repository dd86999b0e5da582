package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// wireWriter appends a model's canonical wire encoding: the bytes
// json.Marshal writes for the wireModel holding the model's canonical
// terms, without building that struct or reflecting over it.
type wireWriter struct {
	b   []byte
	err error // the first non-finite value met
}

// wireSize estimates the model's encoded length from its term counts, so
// that one allocation usually holds the whole encoding.
func (m *Model) wireSize() int {
	n := 64 + exprWireSize(m.obj)
	for _, f := range m.fams {
		n += 24 + len(f.name)
	}
	for _, c := range m.cons {
		n += 64 + len(c.name) + exprWireSize(c.expr)
	}
	return n
}

func exprWireSize(e Expr) int {
	n := 48 + 24*len(e.lin) + 32*len(e.quad)
	for _, t := range e.poly {
		n += 24 + 8*len(t.vars)
	}
	return n
}

func (w *wireWriter) model(m *Model) {
	w.b = append(w.b, `{"families":[`...)
	for k, f := range m.fams {
		if k > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, `{"name":`...)
		w.string(f.name)
		w.b = append(w.b, `,"n":`...)
		w.b = strconv.AppendInt(w.b, int64(f.n), 10)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
	if m.max {
		w.b = append(w.b, `,"maximize":true`...)
	}
	w.b = append(w.b, `,"objective":`...)
	w.expr(m.obj)
	if len(m.cons) > 0 {
		w.b = append(w.b, `,"constraints":[`...)
		for k, c := range m.cons {
			if k > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, `{"name":`...)
			w.string(c.name)
			w.b = append(w.b, `,"sense":`...)
			w.string(c.sense.String())
			w.b = append(w.b, `,"expr":`...)
			w.expr(c.expr)
			w.b = append(w.b, `,"bound":`...)
			w.float(c.bound)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if m.density != 0 {
		w.b = append(w.b, `,"density":`...)
		w.float(m.density)
	}
	w.b = append(w.b, '}')
}

// expr writes an expression's canonical terms. Every member is optional,
// so each is written after a comma and the first comma then becomes the
// opening brace.
func (w *wireWriter) expr(e Expr) {
	lin, quad, poly := e.canonical()
	open := len(w.b)
	if e.c != 0 {
		w.b = append(w.b, `,"const":`...)
		w.float(e.c)
	}
	if len(lin) > 0 {
		w.b = append(w.b, `,"lin":[`...)
		for k, t := range lin {
			if k > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, `{"v":`...)
			w.b = strconv.AppendInt(w.b, int64(t.v), 10)
			w.b = append(w.b, `,"w":`...)
			w.float(t.w)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if len(quad) > 0 {
		w.b = append(w.b, `,"quad":[`...)
		for k, t := range quad {
			if k > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, `{"i":`...)
			w.b = strconv.AppendInt(w.b, int64(t.i), 10)
			w.b = append(w.b, `,"j":`...)
			w.b = strconv.AppendInt(w.b, int64(t.j), 10)
			w.b = append(w.b, `,"w":`...)
			w.float(t.w)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if len(poly) > 0 {
		w.b = append(w.b, `,"poly":[`...)
		for k, t := range poly {
			if k > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, `{"vars":`...)
			if len(t.vars) == 0 {
				w.b = append(w.b, "null"...)
			} else {
				w.b = append(w.b, '[')
				for a, id := range t.vars {
					if a > 0 {
						w.b = append(w.b, ',')
					}
					w.b = strconv.AppendInt(w.b, int64(id), 10)
				}
				w.b = append(w.b, ']')
			}
			w.b = append(w.b, `,"w":`...)
			w.float(t.w)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if len(w.b) == open {
		w.b = append(w.b, '{')
	} else {
		w.b[open] = '{'
	}
	w.b = append(w.b, '}')
}

// float writes f in encoding/json's format: the shortest 'f' form, or
// the 'e' form with a two-digit negative exponent shortened (1e-7, not
// 1e-07) when |f| < 1e-6 or |f| ≥ 1e21. An integer below 2⁵³ in
// magnitude has the same digits as its int64, which AppendInt writes
// without the shortest-float search; −0 keeps the float path for its
// sign. A non-finite f writes nothing and records the error.
func (w *wireWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("model: cannot encode the non-finite value %v", f)
		}
		return
	}
	abs := math.Abs(f)
	if abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		w.b = strconv.AppendInt(w.b, int64(f), 10)
		return
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// string writes s quoted with encoding/json's HTML-safe escaping. Printable
// ASCII is written here, with <, > and & as \u00XX escapes; a name with
// any other byte that needs escaping (quotes, backslashes, control bytes,
// non-ASCII runes such as U+2028 or invalid UTF-8) goes to json.Marshal.
func (w *wireWriter) string(s string) {
	start := len(w.b)
	w.b = append(w.b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<' || c == '>' || c == '&':
			w.b = append(w.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		case c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\':
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b[:start], q...)
			return
		default:
			w.b = append(w.b, c)
		}
	}
	w.b = append(w.b, '"')
}

const hexDigits = "0123456789abcdef"

// wireMaxDepth is encoding/json's nesting limit: a document with more
// than this many objects and arrays open at once is rejected.
const wireMaxDepth = 10000

// wireDecoder reads a wire document into a wireModel without reflection.
// It accepts exactly the documents json.Unmarshal accepts into a
// wireModel and fills the struct as json.Unmarshal would:
//
//   - whitespace is space, tab, CR and LF;
//   - a key matches its field exactly, else case-insensitively
//     (bytes.EqualFold), after unquoting; unknown keys are skipped with
//     their values' syntax checked;
//   - null leaves a field alone, except that it sets a slice to nil;
//   - a repeated key decodes over the earlier value in place, a slice's
//     existing elements included, and [] leaves an empty non-nil slice;
//   - int fields parse with strconv.ParseInt and float fields with
//     strconv.ParseFloat, so fractions, exponents and out-of-range
//     values fail the way they do there;
//   - nesting past wireMaxDepth, trailing input and any value of the
//     wrong type are errors.
//
// Decoded strings and slices are fresh copies: nothing aliases the input.
type wireDecoder struct {
	data  []byte
	off   int
	depth int
}

// decodeWire decodes one wire document into w.
func decodeWire(data []byte, w *wireModel) error {
	d := wireDecoder{data: data}
	d.space()
	if err := d.model(w); err != nil {
		return err
	}
	d.space()
	if d.off < len(d.data) {
		return d.errorf("invalid character %q after top-level value", d.data[d.off])
	}
	return nil
}

var (
	modelFields      = []string{"families", "maximize", "objective", "constraints", "density"}
	familyFields     = []string{"name", "n"}
	exprFields       = []string{"const", "lin", "quad", "poly"}
	linFields        = []string{"v", "w"}
	quadFields       = []string{"i", "j", "w"}
	polyFields       = []string{"vars", "w"}
	constraintFields = []string{"name", "sense", "expr", "bound"}
)

func (d *wireDecoder) model(w *wireModel) error {
	return d.object(modelFields, func(field int) error {
		switch field {
		case 0:
			return decodeSlice(d, &w.Families, (*wireDecoder).family)
		case 1:
			return d.bool(&w.Maximize)
		case 2:
			return d.expr(&w.Objective)
		case 3:
			return decodeSlice(d, &w.Constraints, (*wireDecoder).constraint)
		default:
			return d.float(&w.Density)
		}
	})
}

func (d *wireDecoder) family(f *wireFamily) error {
	return d.object(familyFields, func(field int) error {
		if field == 0 {
			return d.string(&f.Name)
		}
		return d.int(&f.N)
	})
}

func (d *wireDecoder) constraint(c *wireConstraint) error {
	return d.object(constraintFields, func(field int) error {
		switch field {
		case 0:
			return d.string(&c.Name)
		case 1:
			return d.string(&c.Sense)
		case 2:
			return d.expr(&c.Expr)
		default:
			return d.float(&c.Bound)
		}
	})
}

func (d *wireDecoder) expr(e *wireExpr) error {
	return d.object(exprFields, func(field int) error {
		switch field {
		case 0:
			return d.float(&e.Const)
		case 1:
			return decodeSlice(d, &e.Lin, (*wireDecoder).lin)
		case 2:
			return decodeSlice(d, &e.Quad, (*wireDecoder).quad)
		default:
			return decodeSlice(d, &e.Poly, (*wireDecoder).poly)
		}
	})
}

// Term keys as MarshalJSON spells them, for compactTerm.
var (
	compactLinKeys  = []string{`{"v":`, `,"w":`}
	compactQuadKeys = []string{`{"i":`, `,"j":`, `,"w":`}
)

func (d *wireDecoder) lin(t *wireLin) error {
	var id [1]int
	if d.compactTerm(compactLinKeys, id[:], &t.W) {
		t.V = id[0]
		return nil
	}
	return d.object(linFields, func(field int) error {
		if field == 0 {
			return d.int(&t.V)
		}
		return d.float(&t.W)
	})
}

func (d *wireDecoder) quad(t *wireQuad) error {
	var ids [2]int
	if d.compactTerm(compactQuadKeys, ids[:], &t.W) {
		t.I, t.J = ids[0], ids[1]
		return nil
	}
	return d.object(quadFields, func(field int) error {
		switch field {
		case 0:
			return d.int(&t.I)
		case 1:
			return d.int(&t.J)
		default:
			return d.float(&t.W)
		}
	})
}

func (d *wireDecoder) poly(t *wirePoly) error {
	return d.object(polyFields, func(field int) error {
		if field == 0 {
			return decodeSlice(d, &t.Vars, (*wireDecoder).int)
		}
		return d.float(&t.W)
	})
}

// compactTerm reads a term spelled exactly as MarshalJSON writes one: the
// keys in order with no whitespace, a short integer after each key but
// the last, a number after the last, then '}'. It stores the integers in
// ids and the number in *w and reports true. On any other spelling it
// reads nothing, stores nothing and reports false, and the term goes to
// the general object reader, which decodes such a spelling to the same
// values or rejects it. Linear and quadratic terms are nearly all of a
// body, and this reads one in a single pass.
func (d *wireDecoder) compactTerm(keys []string, ids []int, w *float64) bool {
	data, p := d.data, d.off
	var weight float64
	for k, key := range keys {
		if len(data)-p < len(key) || string(data[p:p+len(key)]) != key {
			return false
		}
		p += len(key)
		end, ok := scanNumber(data, p)
		if !ok {
			return false
		}
		tok := data[p:end]
		p = end
		if k < len(ids) {
			v, _, ok := shortInt(tok)
			if !ok {
				return false
			}
			ids[k] = int(v)
		} else if weight, ok = parseFloat(tok); !ok {
			return false
		}
	}
	if p >= len(data) || data[p] != '}' {
		return false
	}
	*w = weight
	d.off = p + 1
	return true
}

// object reads an object into a struct whose fields have the JSON keys
// names, calling set with the index of each member's field; members with
// unknown keys are skipped. A null leaves the struct as it is.
func (d *wireDecoder) object(names []string, set func(field int) error) error {
	if ok, err := d.open('{'); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		if field := matchField(key, names); field >= 0 {
			err = set(field)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// decodeSlice reads an array into *s as encoding/json decodes into a
// slice: element k decodes in place over (*s)[k], reusing whatever the
// backing array holds there up to its capacity, and the slice is cut to
// the array's length. An empty array leaves an empty non-nil slice and a
// null a nil one.
func decodeSlice[T any](d *wireDecoder, s *[]T, elem func(*wireDecoder, *T) error) error {
	if ok, err := d.open('['); !ok {
		if err == nil {
			*s = nil
		}
		return err
	}
	n := 0
	for {
		more, err := d.element(n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case n < len(*s):
		case n < cap(*s):
			*s = (*s)[:n+1]
		default:
			var zero T
			*s = append(*s, zero)
		}
		if err := elem(d, &(*s)[n]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = (*s)[:n]
	}
	return nil
}

// matchField returns the index of the field a key names — an exact match
// first, then a case-insensitive one, as encoding/json matches struct
// fields — or -1. key is the quoted token; one with escapes or non-ASCII
// bytes is unquoted by encoding/json itself.
func matchField(key []byte, names []string) int {
	raw := key[1 : len(key)-1]
	if !plainASCII(raw) {
		var s string
		if err := json.Unmarshal(key, &s); err != nil {
			return -1
		}
		raw = []byte(s)
	}
	for k, name := range names {
		if len(raw) == len(name) && raw[0] == name[0] && string(raw) == name {
			return k
		}
	}
	for k, name := range names {
		if bytes.EqualFold(raw, []byte(name)) {
			return k
		}
	}
	return -1
}

// plainASCII reports whether a string token's contents read as they
// are: no escapes and no bytes past ASCII.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// open consumes the opening byte c of an object or array and reports
// true. For a null it reports false and no error; any other value does
// not fit the field and is an error.
func (d *wireDecoder) open(c byte) (bool, error) {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		if d.depth++; d.depth > wireMaxDepth {
			return false, d.errorf("exceeded max depth %d", wireMaxDepth)
		}
		return true, nil
	}
	return false, d.null()
}

// member advances to the next member of the object being read: past the
// comma that separates it from the previous one (none before the first),
// its key and the colon, up to the value. It returns the quoted key, or
// more == false at the closing brace.
func (d *wireDecoder) member(first bool) (key []byte, more bool, err error) {
	d.space()
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil, false, nil
	}
	if !first {
		if d.peek() != ',' {
			return nil, false, d.errorf("expected ',' or '}' after object member")
		}
		d.off++
		d.space()
	}
	if key, err = d.stringToken(); err != nil {
		return nil, false, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, false, d.errorf("expected ':' after object key")
	}
	d.off++
	d.space()
	return key, true, nil
}

// element advances to the next element of the array being read, past the
// separating comma, or reports more == false at the closing bracket.
func (d *wireDecoder) element(first bool) (more bool, err error) {
	d.space()
	if d.peek() == ']' {
		d.off++
		d.depth--
		return false, nil
	}
	if !first {
		if d.peek() != ',' {
			return false, d.errorf("expected ',' or ']' after array element")
		}
		d.off++
		d.space()
	}
	return true, nil
}

// skip reads past one value of any type, checking its syntax and depth
// as encoding/json's scanner does.
func (d *wireDecoder) skip() error {
	switch c := d.peek(); c {
	case '{', '[':
		if _, err := d.open(c); err != nil {
			return err
		}
		for first := true; ; first = false {
			var more bool
			var err error
			if c == '{' {
				_, more, err = d.member(first)
			} else {
				more, err = d.element(first)
			}
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.stringToken()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

func (d *wireDecoder) bool(p *bool) error {
	switch d.peek() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	}
	return d.null()
}

func (d *wireDecoder) string(p *string) error {
	if d.peek() != '"' {
		return d.null()
	}
	tok, err := d.stringToken()
	if err != nil {
		return err
	}
	if raw := tok[1 : len(tok)-1]; plainASCII(raw) {
		*p = string(raw)
		return nil
	}
	return json.Unmarshal(tok, p)
}

func (d *wireDecoder) int(p *int) error {
	tok, err := d.scalarNumber()
	if err != nil || tok == nil {
		return err
	}
	if v, _, ok := shortInt(tok); ok {
		*p = int(v)
		return nil
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into an int field", tok)
	}
	*p = int(v)
	return nil
}

func (d *wireDecoder) float(p *float64) error {
	tok, err := d.scalarNumber()
	if err != nil || tok == nil {
		return err
	}
	f, ok := parseFloat(tok)
	if !ok {
		return d.errorf("cannot decode number %s into a float field", tok)
	}
	*p = f
	return nil
}

// parseFloat parses a number token as strconv.ParseFloat(tok, 64) does.
// A short integer is exact as a float64, which is what ParseFloat would
// return, and "-0" is negative zero.
func parseFloat(tok []byte) (float64, bool) {
	if v, neg, ok := shortInt(tok); ok {
		if neg && v == 0 {
			return math.Copysign(0, -1), true
		}
		return float64(v), true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// shortInt parses a token of at most 15 digits, optionally signed.
func shortInt(tok []byte) (v int64, neg, ok bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		neg, digits = true, digits[1:]
	}
	if len(digits) == 0 || len(digits) > 15 {
		return 0, false, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		v = 10*v + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, neg, true
}

// scalarNumber reads the number token of a numeric field, or nil for a
// null; any other value is an error.
func (d *wireDecoder) scalarNumber() ([]byte, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.null()
	}
	return d.number()
}

// number reads a number token.
func (d *wireDecoder) number() ([]byte, error) {
	end, ok := scanNumber(d.data, d.off)
	if !ok {
		d.off = end
		return nil, d.errorf("invalid number literal")
	}
	tok := d.data[d.off:end]
	d.off = end
	return tok, nil
}

// scanNumber returns the end of the number token that starts at data[p],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and whether there is one.
func scanNumber(data []byte, p int) (int, bool) {
	if p < len(data) && data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		p = skipDigits(data, p)
	default:
		return p, false
	}
	if p < len(data) && data[p] == '.' {
		if q := skipDigits(data, p+1); q > p+1 {
			p = q
		} else {
			return q, false
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if q := skipDigits(data, p); q > p {
			p = q
		} else {
			return q, false
		}
	}
	return p, true
}

func skipDigits(data []byte, p int) int {
	for p < len(data) && '0' <= data[p] && data[p] <= '9' {
		p++
	}
	return p
}

// stringToken reads a string token, checking its escapes and rejecting
// control bytes, and returns it with its quotes.
func (d *wireDecoder) stringToken() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("expected string")
	}
	start := d.off
	for i := start + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:d.off], nil
		case c == '\\':
			if i+1 >= len(d.data) {
				i++
				continue
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d.data) || !isHex(d.data[k]) {
						d.off = k
						return nil, d.errorf("invalid \\u escape in string")
					}
				}
				i += 6
			default:
				d.off = i + 1
				return nil, d.errorf("invalid escape in string")
			}
		case c < ' ':
			d.off = i
			return nil, d.errorf("invalid control character in string")
		default:
			i++
		}
	}
	d.off = len(d.data)
	return nil, d.errorf("unexpected end of input in string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// null consumes a null. Any other value at the cursor does not fit the
// field being decoded, and is an error.
func (d *wireDecoder) null() error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("unexpected %q for the field's type", d.data[d.off])
}

func (d *wireDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *wireDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *wireDecoder) space() {
	data, p := d.data, d.off
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\n' || data[p] == '\r') {
		p++
	}
	d.off = p
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("model: wire JSON at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}
