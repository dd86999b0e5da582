package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/cluster"
	"github.com/ising-machines/saim/model"
)

// freePorts reserves n distinct loopback ports by binding and releasing
// them — cluster children need the full peer list before any of them
// starts, so :0 self-assignment is not an option.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return ports
}

// knapVariant renders a knapsack wire model whose objective varies with
// i, so each i has a distinct fingerprint (and so a distinct ring
// owner).
func knapVariant(i int) string {
	return fmt.Sprintf(`{
	  "families": [{"name": "take", "n": 3}],
	  "maximize": true,
	  "objective": {"lin": [{"v":0,"w":6},{"v":1,"w":5},{"v":2,"w":%d}]},
	  "constraints": [{"name":"cap","sense":"<=",
	    "expr":{"lin":[{"v":0,"w":2},{"v":1,"w":3},{"v":2,"w":4}]},"bound":5}]
	}`, 8+i)
}

// variantOwnedBy searches knapVariant space for a model the given node
// owns on a ring over the given members — mirroring the placement every
// node computes.
func variantOwnedBy(t *testing.T, members []string, owner string) (string, int) {
	t.Helper()
	ring := cluster.NewRing(0)
	ring.Reset(members)
	for i := 0; i < 512; i++ {
		m := model.New()
		if err := json.Unmarshal([]byte(knapVariant(i)), m); err != nil {
			t.Fatal(err)
		}
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := ring.Owner(fp); got == owner {
			return knapVariant(i), i
		}
	}
	t.Fatalf("no knapVariant owned by %s in 512 tries", owner)
	return "", 0
}

// clusterChildArgs builds the argv for one cluster child.
func clusterChildArgs(id string, port int, peers string, dir string) []string {
	return []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-node-id", id,
		"-peers", peers,
		"-heartbeat", "100ms",
		"-workers", "2",
		"-queue", "64",
		"-data", dir,
		"-fsync", "always",
		"-drain", "10s",
	}
}

// TestClusterKillNodeE2E is the cluster failure acceptance test: three
// real saimserve processes form a cluster, one dies by SIGKILL
// mid-solve, and (a) jobs on the survivors finish untouched, (b) new
// submissions for key ranges the dead node owned are rerouted and
// complete, (c) the dead node's accepted jobs are not lost — a restart
// on the same journal recovers and finishes every one of them.
func TestClusterKillNodeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level cluster test skipped in -short mode")
	}
	ports := freePorts(t, 3)
	ids := []string{"n1", "n2", "n3"}
	var peerList []string
	for i, id := range ids {
		peerList = append(peerList, fmt.Sprintf("%s=127.0.0.1:%d", id, ports[i]))
	}
	peers := strings.Join(peerList, ",")
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}

	urls := make(map[string]string, 3)
	children := make(map[string]*os.Process, 3)
	for i, id := range ids {
		cmd, url := startChild(t, clusterChildArgs(id, ports[i], peers, dirs[i])...)
		urls[id] = url
		children[id] = cmd.Process
	}
	t.Cleanup(func() {
		for _, p := range children {
			_ = p.Kill()
		}
	})

	// Long deadline-bounded jobs everywhere: no_dedup pins each to the
	// node it was submitted to, and the wall-clock limit guarantees they
	// are still mid-solve at kill time yet finish promptly after.
	long := `{"solver":"saim","no_dedup":true,"options":{"seed":%d,"iterations":100000000,"sweeps_per_run":50,"time_limit_ms":5000},"model":` + knapWire + `}`
	jobs := make(map[string][]string) // node → its accepted job ids
	for i, id := range ids {
		for k := 0; k < 2; k++ {
			resp, body := post(t, urls[id]+"/v1/jobs", fmt.Sprintf(long, i*10+k))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit on %s: %d %s", id, resp.StatusCode, body)
			}
			var env jobEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			jobs[id] = append(jobs[id], env.ID)
		}
	}

	// Kill n1 mid-solve: no drain, no journal flush beyond fsync=always.
	if err := children["n1"].Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = children["n1"].Wait()

	// (b) A submission whose fingerprint n1 owned, sent through n2, must
	// be accepted anyway — first via failover, and once the failure
	// detector evicts n1, via rerouting to the ring successor.
	owned, _ := variantOwnedBy(t, ids, "n1")
	resp, body := post(t, urls["n2"]+"/v1/jobs",
		`{"solver":"saim","options":{"seed":77,"iterations":5000,"sweeps_per_run":50},"model":`+owned+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rerouted submit while n1 dead: %d %s", resp.StatusCode, body)
	}
	var rerouted jobEnvelope
	if err := json.Unmarshal(body, &rerouted); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, urls["n2"], rerouted.ID); !res.Feasible {
		t.Fatalf("rerouted job %s infeasible", rerouted.ID)
	}

	// Wait for eviction to show on a survivor, then confirm post-eviction
	// placement mints on a live node directly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("n1 never evicted from n2's view")
		}
		resp, body := get(t, urls["n2"]+"/v1/cluster")
		if resp.StatusCode == http.StatusOK {
			var info cluster.Info
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			dead := false
			for _, p := range info.Peers {
				if p.ID == "n1" && p.State == "dead" {
					dead = true
				}
			}
			if dead && len(info.Ring) == 2 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	survivors := []string{"n2", "n3"}
	postEviction, _ := variantOwnedBy(t, survivors, "n3")
	resp, body = post(t, urls["n2"]+"/v1/jobs",
		`{"solver":"saim","options":{"seed":78,"iterations":5000,"sweeps_per_run":50},"model":`+postEviction+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-eviction submit: %d %s", resp.StatusCode, body)
	}
	var routed jobEnvelope
	if err := json.Unmarshal(body, &routed); err != nil {
		t.Fatal(err)
	}
	if mint := mintOf(t, routed.ID); mint != "n3" {
		t.Fatalf("post-eviction job minted by %q, want ring successor n3", mint)
	}
	if res := waitResult(t, urls["n2"], routed.ID); !res.Feasible {
		t.Fatal("post-eviction job infeasible")
	}

	// (a) Survivors' accepted jobs all complete.
	for _, id := range survivors {
		for _, jid := range jobs[id] {
			if res := waitResult(t, urls[id], jid); !res.Feasible {
				t.Fatalf("job %s on survivor %s infeasible", jid, id)
			}
		}
	}

	// (c) No accepted job lost: restart n1 on its journal; every job it
	// accepted recovers and completes — readable through a peer relay.
	cmd1, url1 := startChild(t, clusterChildArgs("n1", ports[0], peers, dirs[0])...)
	children["n1"] = cmd1.Process
	urls["n1"] = url1
	for _, jid := range jobs["n1"] {
		if res := waitResult(t, urls["n1"], jid); !res.Feasible {
			t.Fatalf("recovered job %s infeasible", jid)
		}
		// And the relay path serves it from any node once n1 rejoins.
		if res := waitResult(t, urls["n3"], jid); !res.Feasible {
			t.Fatalf("recovered job %s unreadable via relay", jid)
		}
	}

	// Clean shutdown everywhere.
	for _, id := range ids {
		if err := children[id].Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM %s: %v", id, err)
		}
	}
	for _, id := range ids {
		done := make(chan struct{})
		go func(p *os.Process) {
			_, _ = p.Wait()
			close(done)
		}(children[id])
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("node %s did not drain after SIGTERM", id)
		}
	}
}

// TestClusterFirstHeartbeatAtBoot launches one node at the default
// -heartbeat (1 s) next to a loopback peer that counts its heartbeats:
// the failure detector probes at start, so the first heartbeat arrives
// well inside the first interval.
func TestClusterFirstHeartbeatAtBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level cluster test skipped in -short mode")
	}
	var pings atomic.Int64
	first := make(chan time.Time, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/ping" && pings.Add(1) == 1 {
			first <- time.Now()
		}
		writeJSON(w, http.StatusOK, cluster.PingReply{ID: "b"})
	}))
	defer peer.Close()

	port := freePorts(t, 1)[0]
	peers := fmt.Sprintf("a=127.0.0.1:%d,b=%s", port, strings.TrimPrefix(peer.URL, "http://"))
	cmd, _ := startChild(t, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-node-id", "a", "-peers", peers)
	listening := time.Now()
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	select {
	case at := <-first:
		if wait := at.Sub(listening); wait > 300*time.Millisecond {
			t.Fatalf("first heartbeat %v after the node listened, want within 300ms", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no heartbeat within 10s of the node listening")
	}
}
