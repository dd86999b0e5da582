package problems_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
)

var update = flag.Bool("update", false, "regenerate testdata/fingerprints.golden")

const fingerprintsGolden = "testdata/fingerprints.golden"

// qkpSpec converts a generated QKP instance into a catalog spec.
func qkpSpec(inst *qkp.Instance) problems.KnapsackSpec {
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
	return problems.KnapsackSpec{
		Values:     values,
		PairValues: pairs,
		Weights:    [][]float64{weights},
		Capacities: []float64{float64(inst.B)},
		Density:    inst.Density,
	}
}

// catalogModel is one fixed instance of a catalog family.
type catalogModel struct {
	name  string
	build func() (*model.Model, error)
}

// catalogInstances returns one fixed instance per catalog family (the
// knapsack family three times: classic, multidimensional, quadratic).
func catalogInstances() []catalogModel {
	return []catalogModel{
		{"knapsack", func() (*model.Model, error) {
			p, err := problems.Knapsack(problems.KnapsackSpec{
				Values:     []float64{60, 100, 120, 70, 80, 50, 90, 110},
				Weights:    [][]float64{{10, 20, 30, 15, 18, 9, 21, 27}},
				Capacities: []float64{70},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"mkp", func() (*model.Model, error) {
			p, err := problems.Knapsack(problems.KnapsackSpec{
				Values:     []float64{60, 100, 120, 70, 80, 50, 90, 110},
				Weights:    [][]float64{{10, 20, 30, 15, 18, 9, 21, 27}, {5, 9, 3, 12, 7, 8, 4, 6}},
				Capacities: []float64{70, 30},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"qkp", func() (*model.Model, error) {
			p, err := problems.Knapsack(qkpSpec(qkp.Generate(60, 0.5, 0, 17)))
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"maxcut", func() (*model.Model, error) {
			p, err := problems.MaxCut(problems.RandomGraph(40, 0.3, 10, 5))
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"coloring", func() (*model.Model, error) {
			p, err := problems.Coloring(problems.RandomGraph(12, 0.3, 1, 6), 3)
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"assignment", func() (*model.Model, error) {
			p, err := problems.Assignment([][]float64{
				{4, 2, 8, 7},
				{3, 9, 5, 6},
				{7, 1, 4, 5},
				{6, 3, 2, 8},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"portfolio", func() (*model.Model, error) {
			p, err := problems.Portfolio(problems.RandomPortfolio(10, 3, 1.0, 77))
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"setcover", func() (*model.Model, error) {
			p, err := problems.SetCover(problems.SetCoverSpec{
				NumElements: 5,
				Sets:        [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2, 4}, {3, 4}},
				Costs:       []float64{3, 4, 2, 2, 3},
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
		{"shift", func() (*model.Model, error) {
			p, err := problems.ShiftScheduling(problems.ShiftSpec{
				Rates:          []float64{52, 48, 61, 45, 38, 41, 57, 44},
				CrewSize:       3,
				CertifiedPairs: [][2]int{{0, 1}, {2, 3}, {1, 4}, {5, 7}, {0, 1}},
				RequiredPairs:  1,
			})
			if err != nil {
				return nil, err
			}
			return p.Model, nil
		}},
	}
}

// energyDigest hashes the compiled model's form, size and (cost,
// feasibility) bits over a fixed set of assignments, so any change in
// what Compile emits shows.
func energyDigest(c *saim.Model) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%v %d %d\n", c.Form(), c.N(), c.NumConstraints())
	asn := make([]int, c.N())
	x := uint64(0x9e3779b97f4a7c15)
	var buf [9]byte
	for k := 0; k < 64; k++ {
		for i := range asn {
			switch k {
			case 0:
				asn[i] = 0
			case 1:
				asn[i] = 1
			default:
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				asn[i] = int(x >> 63)
			}
		}
		cost, feasible, err := c.Evaluate(asn)
		if err != nil {
			return "", err
		}
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(cost))
		buf[8] = 0
		if feasible {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestCatalogFingerprintsGolden pins, for one fixed instance of every
// catalog family, the model fingerprint (the canonical wire encoding) and
// a digest of the compiled model's energies. Changes to how the catalog
// assembles its expressions or how they are canonicalized must leave both
// unchanged; regenerate with -update only for a deliberate change of the
// instances themselves.
func TestCatalogFingerprintsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range catalogInstances() {
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compiled, err := m.Compile()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		energies, err := energyDigest(compiled)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s fingerprint=%s energies=%s\n", c.name, fp, energies)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(fingerprintsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("catalog fingerprints changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
