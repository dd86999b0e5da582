// Command saimbench is the repository's benchmark driver. It runs one
// workload for a fixed time, checks every output, and prints every metric
// by name with its unit; the last line of its standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// saimbench/run.sh builds it, the layer probes and saimserve, then runs
// it. From the repository root:
//
//	bash saimbench/run.sh --workload qkp-dense --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload untraced, then again recording spans, then the layer probes
// (cmd/saimprobe), and reports the per-layer metrics. The exit status is 1
// when any output fails verification. saimbench/README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ising-machines/saim/saimbench/internal/work"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"solve_s", "s"},
	{"time_to_target_s", "s"},
	{"gap_pct", "%"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"hit_latency_p50_ms", "ms"},
	{"max_rate_jobs_per_s", "jobs/s"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order. A
// layer the workload does not exercise reports 0.
var perLayer = append([]metric{
	{"pbit.sweep_us", "us"},
	{"pbit.lane_flips_per_sweep", "count"},
	{"pbit.bytes_per_sweep", "B-computed"},
	{"pbit.achieved_gbps", "GB/s"},
	{"mem.stream_gbps", "GB/s"},
	{"mem.llc_mib", "MiB"},
	{"mem.array_mib", "MiB"},
	{"rng.fill_ns_per_draw", "ns"},
	{"core.iteration_ms", "ms"},
	{"core.kernel_share_pct", "%"},
	{"core.lane_sample_us", "us"},
	{"core.feasible_pct", "%"},
	{"core.iterations_to_target", "count"},
	{"core.packed_speedup", "x"},
	{"saim.compile_ms", "ms"},
	{"saim.job_solve_ms.qkp", "ms"},
	{"saim.job_solve_ms.maxcut", "ms"},
	{"model.build_s", "s"},
	{"model.decode_us", "us"},
	{"model.fingerprint_us", "us"},
	{"model.body_kb", "KiB"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.solve_p50_ms", "ms"},
	{"service.busy_pct", "%"},
	{"service.dedup_hit_pct", "%"},
	{"wal.bytes_per_job", "B"},
	{"wal.appends_per_job", "count"},
	{"wal.syncs_per_s", "1/s"},
	{"saimserve.submit_rtt_p50_ms", "ms"},
	{"saimserve.result_rtt_p50_ms", "ms"},
	{"saimserve.polls_per_job", "count"},
	{"cluster.forwarded_pct", "%"},
	{"cluster.relayed_pct", "%"},
	{"cluster.fallbacks", "count"},
	{"cluster.hop_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.steal_pct", "%"},
	{"gen.sent.fixed", "count"},
	{"gen.ok.fixed", "count"},
	{"gen.failed.fixed", "count"},
	{"gen.refused.fixed", "count"},
	{"gen.sent.ladder", "count"},
	{"gen.ok.ladder", "count"},
	{"gen.failed.ladder", "count"},
	{"gen.refused.ladder", "count"},
	{"core.battery_gap_pct", "%"},
	{"anneal.battery_gap_pct", "%"},
	{"pt.battery_gap_pct", "%"},
	{"ga.battery_gap_pct", "%"},
	{"greedy.battery_gap_pct", "%"},
	{"decompose.battery_gap_pct", "%"},
	{"exact.battery_gap_pct", "%"},
	{"trace.unexplained_pct", "%"},
}, overheadMetrics()...)

// overheadMetrics names each end-to-end metric's tracing overhead.
func overheadMetrics() []metric {
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metric{"trace.overhead_pct." + m.name, "%"}
	}
	return out
}

// bench is one invocation: the workload, its seed and sizes, and where the
// binaries and scratch files live.
type bench struct {
	workload string
	seed     uint64
	measure  time.Duration
	scale    work.Scale
	refs     *work.Refs
	bin      string // holds the saimserve and saimprobe binaries
	dir      string // scratch directory inside the checkout
	runDir   string // this invocation's scratch, removed when it ends
	log      io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole invocation, apart from main so the smoke test can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("saimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: qkp-dense or serve-cluster")
	seed := fs.Uint64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := fs.Float64("seconds", 15, "measured time of the run")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the benchmark's own test")
	bin := fs.String("bin", "", "directory holding the saimserve and saimprobe binaries")
	dir := fs.String("work", ".bench_build/saimbench", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "saimbench: --trace must be 0 or 1")
		return 2
	case *name != work.QKPDense && *name != work.ServeCluster:
		fmt.Fprintf(stderr, "saimbench: unknown workload %q\n", *name)
		return 2
	}
	refs, err := work.LoadRefs()
	if err != nil {
		fmt.Fprintf(stderr, "saimbench: %v\n", err)
		return 1
	}
	b := &bench{workload: *name, seed: *seed, measure: time.Duration(*seconds * float64(time.Second)),
		scale: work.Full, refs: refs, bin: *bin, dir: *dir, log: stderr}
	if *smoke {
		b.scale = work.Smoke
	}
	b.runDir = filepath.Join(b.dir, "runs", fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "saimbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.runDir)
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "saimbench: %v\n", err)
		return 1
	}
	return rep.print(stdout, stderr)
}

// pass runs the workload once; rec, when non-nil, records its spans.
func (b *bench) pass(rec *work.Recorder) (*outcome, error) {
	if b.workload == work.ServeCluster {
		return b.serve(rec)
	}
	return b.batch(rec)
}

// untraced reports the end-to-end metrics.
func (b *bench) untraced() (*report, error) {
	out, err := b.pass(nil)
	if err != nil {
		return nil, err
	}
	return &report{out: out, metrics: endToEnd, values: out.e2e, strict: true}, nil
}

// traced runs the workload untraced, as the baseline of the tracing
// overhead, then again recording spans, then the layer probes, and reports
// the per-layer metrics.
func (b *bench) traced() (*report, error) {
	base, err := b.pass(nil)
	if err != nil {
		return nil, err
	}
	rec := work.NewRecorder()
	out, err := b.pass(rec)
	if err != nil {
		return nil, err
	}
	out.attempted += base.attempted
	out.failed += base.failed
	out.mismatches = append(base.mismatches, out.mismatches...)
	probe, err := b.probe()
	if err != nil {
		return nil, err
	}
	layer := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layer[m.name] = 0
	}
	for k, v := range probe {
		layer[k] = v
	}
	for k, v := range out.layer {
		layer[k] = v
	}
	if b.workload == work.QKPDense && layer["core.iteration_ms"] > 0 {
		layer["core.kernel_share_pct"] = 100 * float64(b.scale.QKP.Sweeps) * layer["pbit.sweep_us"] / (1000 * layer["core.iteration_ms"])
	}
	if out.leaves != nil {
		out.leaves(layer)
	}
	spans := rec.Spans()
	layer["trace.unexplained_pct"] = 100 * work.Unexplained(spans)
	for _, m := range endToEnd {
		if v := base.e2e[m.name]; v != 0 {
			layer["trace.overhead_pct."+m.name] = 100 * (out.e2e[m.name] - v) / v
		}
	}
	path := filepath.Join(b.dir, "trace", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := work.WriteSpans(path, b.workload, b.seed, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "saimbench: wrote %d spans to %s\n", len(spans), path)
	self := work.SelfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.log, "saimbench: self time %-18s %12.1f ms\n", n, self[n])
	}
	return &report{out: out, metrics: perLayer, values: layer}, nil
}

// probe runs the layer probes on this run's inputs and returns their
// per-layer numbers.
func (b *bench) probe() (map[string]float64, error) {
	path := filepath.Join(b.runDir, "probe.json")
	args := []string{"--workload", b.workload, "--seed", strconv.FormatUint(b.seed, 10), "--out", path}
	if b.scale.Smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(filepath.Join(b.bin, "saimprobe"), args...)
	cmd.Stdout, cmd.Stderr = b.log, b.log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return m, nil
}

// outcome is what one pass over a workload observed.
type outcome struct {
	attempted, failed int
	mismatches        []string           // wrong outputs: the run is not correct
	e2e               map[string]float64 // end-to-end metrics
	layer             map[string]float64 // per-layer numbers the pass measured itself
	// leaves adds the spans derived from the probes' layer numbers
	// (traced batch passes).
	leaves func(layer map[string]float64)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// steal records gen.steal_pct, the share of the machine's CPU time its
// hypervisor gave to other guests since the cpuTimes reading: on a shared
// host, a run with much of it reads slow for reasons outside the program.
func (o *outcome) steal(log io.Writer, since []int64) {
	now := cpuTimes()
	if len(since) < 8 || len(now) < 8 {
		return
	}
	var total int64
	for i := range since {
		total += now[i] - since[i]
	}
	if total > 0 {
		o.layer["gen.steal_pct"] = 100 * float64(now[7]-since[7]) / float64(total)
		fmt.Fprintf(log, "saimbench: CPU steal during the measured phase: %.2f%%\n", o.layer["gen.steal_pct"])
	}
}

// cpuTimes reads the machine's summed CPU times in clock ticks, the first
// line of /proc/stat (steal is the eighth); nil where there is none.
func cpuTimes() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, len(f)-1)
	for i, s := range f[1:] {
		if out[i], err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil
		}
	}
	return out
}

// fail counts a failed operation and logs why.
func (o *outcome) fail(log io.Writer, format string, args ...any) {
	o.failed++
	fmt.Fprintf(log, "saimbench: failed: "+format+"\n", args...)
}

// mismatch records a wrong output: the operation failed and the run is not
// correct.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// report is what a run prints.
type report struct {
	out     *outcome
	metrics []metric
	values  map[string]float64
	strict  bool // every metric must have been measured (end-to-end)
}

// print writes every metric as "name value unit", then the JSON result
// line, and returns the exit status: 1 when any output failed verification.
func (r *report) print(stdout, stderr io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	mismatches := r.out.mismatches
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if r.strict {
				mismatches = append(mismatches, fmt.Sprintf("metric %s was not measured", m.name))
			}
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stdout, "%-34s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	for _, s := range mismatches {
		fmt.Fprintf(stderr, "saimbench: verification failed: %s\n", s)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(mismatches) == 0, r.out.attempted, r.out.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "saimbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(mismatches) > 0 {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
