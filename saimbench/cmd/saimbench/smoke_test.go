package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/ising-machines/saim/saimbench/internal/work"
)

// TestSmoke runs every workload untraced and traced at smoke sizes and
// holds each run to the benchmark's output contract: every metric of its
// kind printed by name with its unit, outputs verified, no failed
// operation, and the JSON result object as the last line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts saimserve clusters")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/saimprobe", "github.com/ising-machines/saim/cmd/saimserve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	scratch := t.TempDir()
	for _, w := range []string{work.QKPDense, work.ServeCluster} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "5", "--seconds", "1", "--trace", trace,
					"--smoke", "--bin", bin, "--work", scratch}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit status %d\n%s", code, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				checkOutput(t, stdout.String(), want)
			})
		}
	}
}

func checkOutput(t *testing.T, stdout string, want []metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
		if printed[m.name] != m.unit {
			t.Errorf("metric %s is not printed with its unit", m.name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the driver's metric lists and the
// workloads to the repository's BENCHMARK.json: names, units and order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join([]string{work.QKPDense, work.ServeCluster}, ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, c := range []struct {
		kind string
		got  []entry
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, driver has %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, driver has %s %s", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
