package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The reflection codec that wireWriter and wireDecoder replaced, kept as
// their oracle: MarshalJSON built the canonical wireModel with toWire and
// handed it to json.Marshal, and UnmarshalJSON ran json.Unmarshal into a
// wireModel.

// toWire canonicalizes an expression for the wire.
func (e Expr) toWire() wireExpr {
	lin, quad, poly := e.canonical()
	out := wireExpr{Const: e.c}
	for _, t := range lin {
		out.Lin = append(out.Lin, wireLin{V: t.v, W: t.w})
	}
	for _, t := range quad {
		out.Quad = append(out.Quad, wireQuad{I: t.i, J: t.j, W: t.w})
	}
	for _, t := range poly {
		out.Poly = append(out.Poly, wirePoly{Vars: append([]int(nil), t.vars...), W: t.w})
	}
	return out
}

// ReflectMarshal is MarshalJSON through encoding/json's reflection.
func ReflectMarshal(m *Model) ([]byte, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	if m.vars == 0 {
		return nil, fmt.Errorf("model: cannot encode a model with no variables")
	}
	if !m.objSet {
		return nil, fmt.Errorf("model: cannot encode a model with no objective")
	}
	w := wireModel{
		Families:  make([]wireFamily, len(m.fams)),
		Maximize:  m.max,
		Objective: m.obj.toWire(),
		Density:   m.density,
	}
	for i, f := range m.fams {
		w.Families[i] = wireFamily{Name: f.name, N: f.n}
	}
	for _, c := range m.cons {
		w.Constraints = append(w.Constraints, wireConstraint{
			Name:  c.name,
			Sense: c.sense.String(),
			Expr:  c.expr.toWire(),
			Bound: c.bound,
		})
	}
	return json.Marshal(w)
}

// checkWireDecode decodes data with both decoders. Either both reject it,
// or both accept it into deeply equal structs, which fromWire then
// accepts or rejects alike; an accepted model encodes as the oracle
// encodes it.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	var want, got wireModel
	wantErr := json.Unmarshal(data, &want)
	gotErr := decodeWire(data, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encoding/json error %v, wire decoder error %v\ninput: %q", wantErr, gotErr, data)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded structs differ\nencoding/json: %#v\nwire decoder:  %#v\ninput: %q", want, got, data)
	}
	wm, wantErr := fromWire(&want)
	gm, gotErr := fromWire(&got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("validation differs: %v vs %v\ninput: %q", wantErr, gotErr, data)
	}
	if wantErr != nil {
		return
	}
	a, errA := ReflectMarshal(wm)
	b, errB := gm.MarshalJSON()
	if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
		t.Fatalf("re-encoding differs: %s (%v) vs %s (%v)", a, errA, b, errB)
	}
}

// wireDecodeSeeds are documents that probe where a hand-written decoder
// can part from encoding/json.
func wireDecodeSeeds() []string {
	base := `{"families":[{"name":"x","n":4}],"maximize":true,"objective":{"const":1.5,"lin":[{"v":0,"w":-2},{"v":3,"w":0.5}],"quad":[{"i":0,"j":1,"w":3},{"i":2,"j":3,"w":-1}],"poly":[{"vars":[0,1,2],"w":2}]},"constraints":[{"name":"c","sense":"<=","expr":{"lin":[{"v":0,"w":1},{"v":1,"w":2}]},"bound":2},{"name":"e","sense":"==","expr":{"poly":[{"vars":[1,2,3],"w":1}]},"bound":0}],"density":0.25}`
	seeds := []string{
		base,
		" \t\r\n" + base + " \n",
		`{"families":[{"name":"x","n":2}],"objective":{}}`,
		`{"FAMILIES":[{"NAME":"x","N":2}],"Objective":{"LIN":[{"V":1,"W":1}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1}]}}`,
		`{"familieſ":[{"name":"x","n":2}],"objective":{}}`,
		`{"families":[{"name":"xé <&>\"\\\/\b\f\n\r\t","n":2}],"objective":{}}`,
		"{\"families\":[{\"name\":\"x\xff\xfe\",\"n\":2}],\"objective\":{}}",
		"{\"families\":[{\"name\":\"\xe2\x80\xa8\",\"n\":2}],\"objective\":{}}",
		`{"families":[{"name":"x","n":2,"extra":{"a":[1,2.5e-3,{"b":null}],"c":"\ud800"}}],"objective":{},"unknown":[[[]]],"more":true}`,
		`{"families":null,"objective":null,"maximize":null,"constraints":null,"density":null}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":null,"quad":[],"poly":[]},"constraints":[]}`,
		`{"families":[{"name":"x","n":3}],"objective":{"lin":[{"v":0,"w":1},{"v":1,"w":2},{"v":2,"w":3}]},"objective":{"lin":[{"v":2},{"w":5}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"lin":[{"v":0,"w":1},{"v":1,"w":2}],"lin":[{"v":2}],"lin":[{"v":0},{"v":1},{"v":2}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"lin":[{"v":0,"w":1},{"v":1,"w":2}],"lin":[],"lin":[{"v":0},{"v":1}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"lin":[{"v":0,"w":1},{"v":1,"w":2}],"lin":null,"lin":[{"v":0},{"v":1}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"poly":[{"vars":[0,1,2],"w":1}],"poly":[{"vars":[2]},{"vars":[null,null,1]}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"lin":[null,{"v":1,"w":1}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"quad":[{"i":0,"j":1,"w":3,"w":4}],"lin":[{"v":0,"w":1,"v":2},{"v":1,"w":1.5e-3 }]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1}]},"families":[{"n":3}]}`,
		`null`,
		` null `,
		`{}`,
		``,
		`   `,
		`[]`,
		`"x"`,
		`{"families":[{"name":"x","n":2}],"objective":{}} x`,
		`{"families":[{"name":"x","n":2}],"objective":{}}{}`,
		`{"families":[{"name":"x","n":2}],"objective":{},}`,
		`{"families":[{"name":"x","n":2},],"objective":{}}`,
		`{"families":[{"name":"x","n":2}] "objective":{}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1}]}`,
		`{"families":[{"name":"x" "n":2}],"objective":{}}`,
		`{'families':[]}`,
		`{"families":[{"name":"x","n":2}],"objective":{},"maximize":"true"}`,
		`{"families":[{"name":"x","n":2}],"objective":{},"maximize":1}`,
		`{"families":[{"name":"x","n":2}],"objective":{},"maximize":tru}`,
		`{"families":[{"name":"x","n":2}],"objective":{},"maximize":false}`,
		`{"families":[{"name":1,"n":2}],"objective":{}}`,
		`{"families":[{"name":"x","n":"2"}],"objective":{}}`,
		`{"families":{"name":"x","n":2},"objective":{}}`,
		`{"families":[{"name":"x","n":2}],"objective":[]}`,
		`{"families":[{"name":"x","n":2}],"objective":"lin"}`,
		`{"families":[["x",2]],"objective":{}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":true}]}}`,
		"{\"families\":[{\"name\":\"a\x01\",\"n\":2}],\"objective\":{}}",
		`{"families":[{"name":"a\x","n":2}],"objective":{}}`,
		`{"families":[{"name":"a\u12","n":2}],"objective":{}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":01,"w":1}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":.5}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1.}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1e}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":+1}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":-}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":NaN}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":1E+2}]},"density":5e-1}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":123456789012345678901234567890}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":1,"w":4.9e-324},{"v":0,"w":1e-400}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":9223372036854775807,"w":1}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":9223372036854775808,"w":1}]}}`,
		`{"families":[{"name":"x","n":2}],"objective":{"lin":[{"v":-9223372036854775808,"w":1}]}}`,
		`{"families":[{"name":"x","n":2000000000}],"objective":{}}`,
		`{"families":[{"name":"x","n":2},{"name":"x","n":1}],"objective":{}}`,
		`{"families":[{"name":"x","n":3}],"objective":{"quad":[{"i":2,"j":0,"w":1},{"i":1,"j":1,"w":1}]}}`,
		`{"families":[{"name":"x","n":3}],"objective":{},"constraints":[{"name":"c","sense":">=","expr":{},"bound":-0}]}`,
		`{"families":[{"name":"x","n":3}],"objective":{},"constraints":[{"name":"c","sense":"!=","expr":{},"bound":1}]}`,
		`{"families":[{"name":"x","n":3}],"objective":{},"density":2}`,
	}
	// The same number in int and float fields, in each of the forms
	// strconv parses differently.
	for _, num := range []string{"1.0", "1e2", "-0", "1e400", "0", "-0.0", "1E-7", "12345678901234567"} {
		seeds = append(seeds,
			`{"families":[{"name":"x","n":`+num+`}],"objective":{}}`,
			`{"families":[{"name":"x","n":3}],"objective":{"const":`+num+`,"lin":[{"v":`+num+`,"w":`+num+`}]}}`)
	}
	// Nesting one past encoding/json's depth limit (TestWireDecodeDepth
	// has more; large seeds slow the fuzzer's minimization down).
	return append(seeds, `{"x":`+strings.Repeat("[", wireMaxDepth))
}

// TestWireDecodeDepth pins the nesting limit to encoding/json's: arrays
// and objects at the limit decode, one past it both decoders reject, and
// a body of brackets as long as the service accepts fails on the limit
// instead of exhausting the stack.
func TestWireDecodeDepth(t *testing.T) {
	for _, s := range []string{
		`{"families":[{"name":"x","n":2}],"objective":{},"deep":` + strings.Repeat("[", wireMaxDepth-1) + strings.Repeat("]", wireMaxDepth-1) + `}`,
		`{"families":[{"name":"x","n":2}],"objective":{},"deep":` + strings.Repeat("[", wireMaxDepth) + strings.Repeat("]", wireMaxDepth) + `}`,
		`{"deep":` + strings.Repeat(`{"a":`, wireMaxDepth-1) + `1` + strings.Repeat("}", wireMaxDepth-1) + `}`,
		`{"deep":` + strings.Repeat(`{"a":`, wireMaxDepth) + `1` + strings.Repeat("}", wireMaxDepth) + `}`,
		strings.Repeat("[", wireMaxDepth+1),
	} {
		checkWireDecode(t, []byte(s))
	}
	body := append([]byte(`{"x":`), bytes.Repeat([]byte("["), 32<<20)...)
	var w wireModel
	if err := decodeWire(body, &w); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("decodeWire on a 32 MiB run of '[' = %v, want a depth error", err)
	}
}

// TestWireDecodeDoesNotAlias pins that a decoded model owns its strings:
// overwriting the input afterwards changes nothing.
func TestWireDecodeDoesNotAlias(t *testing.T) {
	data := []byte(`{"families":[{"name":"take","n":2}],"objective":{"lin":[{"v":0,"w":1}]},"constraints":[{"name":"cap","sense":"<=","expr":{"lin":[{"v":1,"w":1}]},"bound":1}]}`)
	var m Model
	if err := m.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	before, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'z'
	}
	after, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("decoded model changed with its input:\n%s\n%s", before, after)
	}
}

// FuzzWireDecode runs the wire decoder and encoding/json on the same
// input: either both reject it, or both fill deeply equal wireModels that
// validate alike and re-encode to the same bytes.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireDecodeSeeds() {
		f.Add([]byte(s))
	}
	for _, max := range []bool{false, true} {
		data, err := wireSampleModel(max).MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireDecode(t, data)
	})
}

// wireSampleModel is a small model with every wire feature: two families,
// all three term kinds, all three senses, a polynomial equality, a
// density hint, and a minimized or maximized objective.
func wireSampleModel(max bool) *Model {
	m := New()
	x := m.Binary("x", 4)
	y := m.Binary("y<&>", 2)
	m.setObjective(Sum(Const(-1.25), Dot([]float64{3, -2, 1e-7, 1e21}, x), x[0].Times(y[1]).Mul(0.1),
		Prod(x[1], x[2], y[0]).Mul(-4)), max)
	m.Constrain("cap", Dot([]float64{1, 2, 3, 4}, x).LE(5))
	m.Constrain("pick", y.Sum().EQ(1))
	m.Constrain("floor", Dot([]float64{1, 1}, Vars{x[0], x[3]}).GE(1))
	m.Constrain("tri", Prod(x[0], x[1], x[2]).EQ(0))
	m.Density(0.75)
	return m
}
