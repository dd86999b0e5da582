package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterThroughputBench measures aggregate submit→result throughput
// at 1, 2, and 3 worker processes and writes a JSON report to the path
// named by SAIMSERVE_CLUSTER_BENCH (skipped when unset — this is a
// minutes-long load test, not a unit test).
//
// The methodology is weak scaling: every process brings its own pair of
// closed-loop clients (submit → poll to completion → 150ms think time),
// so offered load grows with the deployment, the way a sharded serving
// tier is actually grown. Jobs are dedup-eligible, so every submission
// rides the full cluster data path — fingerprint routing to the ring
// owner, forwarded submits, relayed result polls. The acceptance bar is
// that 3 processes clear ≥ 2.5× the single process measured in the same
// run: the cluster plane (heartbeats, routing hops, relays, ring
// bookkeeping) must not eat the capacity the extra nodes add. Work
// stealing is disabled in the children — it is a load-imbalance rescue
// with its own tests, and its probe round-trips are latency noise at
// this job granularity.
func TestClusterThroughputBench(t *testing.T) {
	out := os.Getenv("SAIMSERVE_CLUSTER_BENCH")
	if out == "" {
		t.Skip("set SAIMSERVE_CLUSTER_BENCH=<output path> to run the cluster throughput bench")
	}
	if testing.Short() {
		t.Skip("cluster throughput bench skipped in -short mode")
	}

	type run struct {
		Nodes      int     `json:"nodes"`
		Completed  int64   `json:"completed"`
		Errors     int64   `json:"errors"`
		Seconds    float64 `json:"seconds"`
		JobsPerSec float64 `json:"jobs_per_sec"`
	}
	runs := make(map[string]run, 3)
	tput := make(map[int]float64, 3)
	for _, n := range []int{1, 2, 3} {
		r := measureClusterThroughput(t, n)
		runs[fmt.Sprintf("ClusterThroughput%dNode", n)] = r
		tput[n] = r.JobsPerSec
		t.Logf("nodes=%d completed=%d errors=%d throughput=%.1f jobs/s", n, r.Completed, r.Errors, r.JobsPerSec)
	}
	ratio2 := tput[2] / tput[1]
	ratio3 := tput[3] / tput[1]
	if !(ratio3 >= 2.5) { // NaN-safe: 0/0 must fail, not skate through
		t.Errorf("3-node aggregate throughput only %.2fx single-node, want >= 2.5x", ratio3)
	}

	report := map[string]any{
		"description": "Cluster plane: coordinator-free saimserve with fingerprint-sharded dedup and work-stealing",
		"acceptance": map[string]any{
			"target":                   "3-process aggregate submit->result throughput >= 2.5x single-node, same run",
			"single_node_jobs_per_sec": round2(tput[1]),
			"two_node_jobs_per_sec":    round2(tput[2]),
			"three_node_jobs_per_sec":  round2(tput[3]),
			"two_node_speedup":         round2(ratio2),
			"three_node_speedup":       round2(ratio3),
		},
		"source":     "go test -run TestClusterThroughputBench (weak scaling: 2 closed-loop clients per process with 150ms think time, dedup-eligible jobs routed to their fingerprint's ring owner)",
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"benchmarks": runs,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (2-node %.2fx, 3-node %.2fx)", out, ratio2, ratio3)
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// cpuModel best-efforts the CPU model string for the report.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// measureClusterThroughput boots an n-process cluster (workers=1 each),
// drives it with two closed-loop clients per node for a fixed window
// after warmup, and returns the completion rate.
func measureClusterThroughput(t *testing.T, n int) (r struct {
	Nodes      int     `json:"nodes"`
	Completed  int64   `json:"completed"`
	Errors     int64   `json:"errors"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}) {
	t.Helper()
	ports := freePorts(t, n)
	var peerList []string
	for i := 0; i < n; i++ {
		peerList = append(peerList, fmt.Sprintf("b%d=127.0.0.1:%d", i+1, ports[i]))
	}
	peers := strings.Join(peerList, ",")
	urls := make([]string, 0, n)
	procs := make([]*os.Process, 0, n)
	for i := 0; i < n; i++ {
		cmd, url := startChild(t,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-node-id", fmt.Sprintf("b%d", i+1),
			"-peers", peers,
			"-heartbeat", "500ms",
			"-steal-interval", "-1ms", // capacity bench, not a steal bench
			"-workers", "1",
			"-queue", "16",
		)
		urls = append(urls, url)
		procs = append(procs, cmd.Process)
	}
	defer func() {
		for _, p := range procs {
			_ = p.Kill()
			_, _ = p.Wait()
		}
	}()

	const (
		warmup  = 2 * time.Second
		measure = 8 * time.Second
		think   = 150 * time.Millisecond
	)
	var completed, failed atomic.Int64
	var seed atomic.Int64
	stop := time.Now().Add(warmup + measure)
	counting := time.Now().Add(warmup)

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				client := &http.Client{Timeout: 10 * time.Second}
				for time.Now().Before(stop) {
					s := seed.Add(1)
					// Distinct seed → distinct dedup key; rotating model
					// variants spread fingerprints across the ring so the
					// submission path exercises real cross-node routing.
					body := fmt.Sprintf(`{"solver":"saim","options":{"seed":%d,"iterations":2000,"sweeps_per_run":50},"model":%s}`,
						s, knapVariant(int(s%48)))
					resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
					if err != nil {
						failed.Add(1)
						time.Sleep(think)
						continue
					}
					var env jobEnvelope
					err = json.NewDecoder(resp.Body).Decode(&env)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusAccepted {
						failed.Add(1)
						time.Sleep(think)
						continue
					}
					for time.Now().Before(stop) {
						rr, err := client.Get(base + "/v1/jobs/" + env.ID + "/result")
						if err != nil {
							failed.Add(1)
							break
						}
						done := rr.StatusCode == http.StatusOK
						var res wireResult
						if done {
							if err := json.NewDecoder(rr.Body).Decode(&res); err != nil || res.Stopped == "" {
								done = false // terminal error body, not a result
								rr.Body.Close()
								failed.Add(1)
								break
							}
						}
						rr.Body.Close()
						if done {
							if time.Now().After(counting) {
								completed.Add(1)
							}
							break
						}
						// Transient relay errors (502/503) and still-running
						// (409) both land here: poll again shortly.
						time.Sleep(10 * time.Millisecond)
					}
					time.Sleep(think)
				}
			}(urls[node])
		}
	}
	wg.Wait()

	r.Nodes = n
	r.Completed = completed.Load()
	r.Errors = failed.Load()
	r.Seconds = measure.Seconds()
	r.JobsPerSec = float64(r.Completed) / r.Seconds
	return r
}
