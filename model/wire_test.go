package model_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
)

// knapsackOf builds a catalog QKP from a generated instance.
func knapsackOf(inst *qkp.Instance) (*model.Model, error) {
	values := make([]float64, inst.N)
	weights := make([]float64, inst.N)
	pairs := make([][]float64, inst.N)
	for i := range values {
		values[i] = float64(inst.H[i])
		weights[i] = float64(inst.A[i])
		pairs[i] = make([]float64, inst.N)
		for j, w := range inst.W[i] {
			pairs[i][j] = float64(w)
		}
	}
	p, err := problems.Knapsack(problems.KnapsackSpec{
		Values:     values,
		PairValues: pairs,
		Weights:    [][]float64{weights},
		Capacities: []float64{float64(inst.B)},
		Density:    inst.Density,
	})
	if err != nil {
		return nil, err
	}
	return p.Model, nil
}

// catalogFamilies builds one instance of every catalog family.
func catalogFamilies() map[string]func() (*model.Model, error) {
	return map[string]func() (*model.Model, error){
		"mkp": func() (*model.Model, error) {
			p, err := problems.Knapsack(problems.KnapsackSpec{
				Values:     []float64{60, 100, 120, 70},
				Weights:    [][]float64{{10, 20, 30, 15}, {5, 9, 3, 12}},
				Capacities: []float64{40, 20},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"qkp": func() (*model.Model, error) { return knapsackOf(qkp.Generate(30, 0.5, 0, 3)) },
		"maxcut": func() (*model.Model, error) {
			p, err := problems.MaxCut(problems.RandomGraph(40, 0.3, 10, 5))
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"coloring": func() (*model.Model, error) {
			p, err := problems.Coloring(problems.RandomGraph(8, 0.4, 1, 6), 3)
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"assignment": func() (*model.Model, error) {
			p, err := problems.Assignment([][]float64{{4, 2, 8}, {3, 9, 5}, {7, 1, 4}})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"portfolio": func() (*model.Model, error) {
			p, err := problems.Portfolio(problems.RandomPortfolio(8, 3, 1.0, 77))
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"setcover": func() (*model.Model, error) {
			p, err := problems.SetCover(problems.SetCoverSpec{
				NumElements: 4,
				Sets:        [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2}},
				Costs:       []float64{3, 4, 2, 2},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
		"shift": func() (*model.Model, error) {
			p, err := problems.ShiftScheduling(problems.ShiftSpec{
				Rates:          []float64{52, 48, 61, 45, 38},
				CrewSize:       2,
				CertifiedPairs: [][2]int{{0, 1}, {2, 3}, {1, 4}},
				RequiredPairs:  1,
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		},
	}
}

// wireWeights are the floats where encoding/json's number format changes
// form, or where an integer shortcut could part from it.
var wireWeights = []float64{
	0, math.Copysign(0, -1), 1, -3, 0.5, -0.1, 1.0 / 3,
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.5e-300,
	1e20, 1e21, -1e21, 123456789012345680000,
	1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, 1 << 62,
	math.MaxFloat64, -math.MaxFloat64,
}

// wireNames are names that need each kind of escaping encoding/json does.
var wireNames = []string{
	"x", "take", "a<b", "p&q>r", "line\u2028sep", "para\u2029", "ctl\x01\x1f", "bad\xff\xfeutf8", "cut\xe2\x80",
	"quote\"back\\slash", "tab\tnew\nline\r", "é", "del\x7f", "\b\f", "日本",
}

// randomWireModel builds a model over random families whose objective and
// constraints draw from wireWeights and wireNames, with duplicated and
// shuffled monomials so the canonical merge has work to do. Some draws
// overflow when merged, or repeat a name; both encoders must then fail.
func randomWireModel(r *rand.Rand) *model.Model {
	m := model.New()
	var all model.Vars
	for f := r.IntN(3); f >= 0; f-- {
		all = append(all, m.Binary(wireNames[r.IntN(len(wireNames))]+fmt.Sprint(f), 1+r.IntN(5))...)
	}
	weight := func() float64 {
		if r.IntN(3) == 0 {
			return float64(r.IntN(2001) - 1000)
		}
		return wireWeights[r.IntN(len(wireWeights))]
	}
	expr := func(degree int) model.Expr {
		var parts []model.Expr
		if r.IntN(2) == 0 {
			parts = append(parts, model.Const(weight()))
		}
		for k := r.IntN(2 * len(all)); k > 0; k-- {
			a, b, c := all[r.IntN(len(all))], all[r.IntN(len(all))], all[r.IntN(len(all))]
			switch r.IntN(degree) {
			case 0:
				parts = append(parts, a.Mul(weight()))
			case 1:
				parts = append(parts, a.Times(b).Mul(weight()))
			default:
				parts = append(parts, model.Prod(a, b, c).Mul(weight()))
			}
		}
		return model.Sum(parts...)
	}
	obj := expr(3)
	if r.IntN(2) == 0 {
		m.Maximize(obj)
	} else {
		m.Minimize(obj)
	}
	for k := r.IntN(4); k > 0; k-- {
		name := wireNames[r.IntN(len(wireNames))]
		switch r.IntN(3) {
		case 0:
			m.Constrain(name, expr(1).LE(weight()))
		case 1:
			m.Constrain(name, expr(3).EQ(weight()))
		default:
			m.Constrain(name, expr(1).GE(weight()))
		}
	}
	if r.IntN(2) == 0 {
		m.Density([]float64{0, math.Copysign(0, -1), 1e-7, 0.3, 0.5, 1}[r.IntN(6)])
	}
	return m
}

// checkWireEncoding compares MarshalJSON with the reflection encoder it
// replaced, and with json.Marshal on the model, reporting whether the
// model encoded.
func checkWireEncoding(t *testing.T, name string, m *model.Model) bool {
	t.Helper()
	want, wantErr := model.ReflectMarshal(m)
	got, gotErr := m.MarshalJSON()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reflection encoder error %v, MarshalJSON error %v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		return false
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: encodings differ\nreflection:  %s\nMarshalJSON: %s", name, want, got)
	}
	outer, err := json.Marshal(m)
	if err != nil || !bytes.Equal(outer, got) {
		t.Fatalf("%s: json.Marshal(m) = %s (%v), MarshalJSON = %s", name, outer, err, got)
	}
	return true
}

// TestWireEncodingMatchesReflect pins the hand-written encoder to the
// bytes encoding/json wrote for the wire struct, on every catalog family
// and on random models that hit each number format, each escape and
// each optional member.
func TestWireEncodingMatchesReflect(t *testing.T) {
	for name, build := range catalogFamilies() {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !checkWireEncoding(t, name, m) {
			t.Fatalf("%s: catalog model does not encode", name)
		}
	}
	r := rand.New(rand.NewPCG(22, 7))
	encoded := 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		if checkWireEncoding(t, fmt.Sprintf("random model %d", trial), randomWireModel(r)) {
			encoded++
		}
	}
	if encoded < trials/2 || encoded == trials {
		t.Fatalf("%d of %d random models encoded; want most, and some failures", encoded, trials)
	}
}

// wireBodies are the bodies the benchmark workloads submit: serve-
// cluster's N = 40, d = 0.5 QKP and N = 200 max-cut, and qkp-dense's
// N = 150, d = 0.5 QKP.
func wireBodies(b *testing.B) []struct {
	name string
	m    *model.Model
	data []byte
} {
	q40, err := knapsackOf(qkp.Generate(40, 0.5, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	cut, err := problems.MaxCut(problems.RandomGraph(200, 3.0/199, 10, 1))
	if err != nil {
		b.Fatal(err)
	}
	q150, err := knapsackOf(qkp.Generate(150, 0.5, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	var out []struct {
		name string
		m    *model.Model
		data []byte
	}
	for _, c := range []struct {
		name string
		m    *model.Model
	}{{"qkp-n40", q40}, {"maxcut-n200", cut.Model}, {"qkp-n150-d0.5", q150}} {
		data, err := c.m.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, struct {
			name string
			m    *model.Model
			data []byte
		}{c.name, c.m, data})
	}
	return out
}

// BenchmarkWireDecode times UnmarshalJSON, validation included, on the
// benchmark workloads' bodies.
func BenchmarkWireDecode(b *testing.B) {
	for _, c := range wireBodies(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for b.Loop() {
				var m model.Model
				if err := m.UnmarshalJSON(c.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireFingerprint times Fingerprint on the benchmark workloads'
// models, built by the catalog (max-cut's terms need the canonical sort)
// and decoded from their bodies (already canonical).
func BenchmarkWireFingerprint(b *testing.B) {
	for _, c := range wireBodies(b) {
		var decoded model.Model
		if err := decoded.UnmarshalJSON(c.data); err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			m    *model.Model
		}{{"catalog", c.m}, {"decoded", &decoded}} {
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.data)))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := v.m.Fingerprint(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
