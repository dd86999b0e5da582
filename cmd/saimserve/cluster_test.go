package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/cluster"
	"github.com/ising-machines/saim/service"
)

// swapHandler lets an httptest server exist before its real handler
// does — the cluster needs every peer's address to build any node.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is an in-process N-node cluster: real HTTP between nodes,
// separate managers, shared nothing.
type testCluster struct {
	ids  []string
	urls map[string]string // id → base URL
	srvs map[string]*server
	mgrs map[string]*service.Manager
}

// startCluster boots n nodes named c1..cn wired to each other over
// loopback HTTP, with fast heartbeats and stealing enabled.
func startCluster(t *testing.T, n int, cfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{
		urls: make(map[string]string, n),
		srvs: make(map[string]*server, n),
		mgrs: make(map[string]*service.Manager, n),
	}
	swaps := make(map[string]*swapHandler, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%d", i+1)
		tc.ids = append(tc.ids, id)
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		swaps[id] = sw
		tc.urls[id] = ts.URL
		peers[id] = strings.TrimPrefix(ts.URL, "http://")
	}
	for _, id := range tc.ids {
		ncfg := cfg
		ncfg.NodeID = id
		mgr := service.New(ncfg)
		node, err := cluster.New(cluster.Config{
			Self:              id,
			Peers:             peers,
			Manager:           mgr,
			HeartbeatInterval: 250 * time.Millisecond,
			StealInterval:     20 * time.Millisecond,
			StealLease:        30 * time.Second,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := newNodeServer(mgr, node)
		swaps[id].set(srv)
		node.Start()
		tc.srvs[id] = srv
		tc.mgrs[id] = mgr
		t.Cleanup(func() {
			node.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = mgr.Close(ctx)
		})
	}
	return tc
}

// mintOf extracts the minting node from a cluster job id.
func mintOf(t *testing.T, id string) string {
	t.Helper()
	rest := strings.TrimPrefix(id, "job-")
	i := strings.LastIndexByte(rest, '-')
	if !strings.HasPrefix(id, "job-") || i <= 0 {
		t.Fatalf("job id %q is not cluster-scoped", id)
	}
	return rest[:i]
}

// otherNode returns any cluster node except the given one.
func (tc *testCluster) otherNode(not string) string {
	for _, id := range tc.ids {
		if id != not {
			return id
		}
	}
	return not
}

// waitResult polls a job's result through the given node until it is
// final.
func waitResult(t *testing.T, baseURL, id string) wireResult {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get(t, baseURL+"/v1/jobs/"+id+"/result")
		switch resp.StatusCode {
		case http.StatusOK:
			var res wireResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("result %s: %s: %v", id, body, err)
			}
			if res.Stopped == "" {
				t.Fatalf("job %s finished without result: %s", id, body)
			}
			return res
		case http.StatusConflict:
			// Still running.
		case http.StatusServiceUnavailable, http.StatusBadGateway:
			// Relay target mid-eviction or mid-rejoin; retry.
		default:
			t.Fatalf("result %s: %d %s", id, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCrossNodeDedup is the cross-node dedup acceptance test: the
// same model and options submitted to two different nodes must land on
// one job (the fingerprint's ring owner), solved once, with the second
// submission served as a dedup hit — and the result readable through a
// third node.
func TestClusterCrossNodeDedup(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 2})
	req := `{"solver":"saim","options":{"seed":21,"iterations":60,"sweeps_per_run":50},"model":` + knapWire + `}`

	resp1, body1 := post(t, tc.urls["c1"]+"/v1/jobs", req)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via c1: %d %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, tc.urls["c2"]+"/v1/jobs", req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via c2: %d %s", resp2.StatusCode, body2)
	}
	var a, b jobEnvelope
	if err := json.Unmarshal(body1, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &b); err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("same submission through two nodes made two jobs: %q vs %q", a.ID, b.ID)
	}
	if b.Hits < 2 && a.Hits < 2 {
		t.Fatalf("no dedup hit recorded: hits %d/%d", a.Hits, b.Hits)
	}
	owner := mintOf(t, a.ID)

	// Exactly one manager ever saw a solve for this model.
	solves := int64(0)
	for _, id := range tc.ids {
		solves += tc.mgrs[id].Stats().Submitted
	}
	if solves != 1 {
		t.Fatalf("cluster-wide submissions = %d, want 1 (single shard owns the key)", solves)
	}

	// The result is readable through a node that does not own the job.
	res := waitResult(t, tc.urls[tc.otherNode(owner)], a.ID)
	if !res.Feasible || res.Objective == nil || *res.Objective != 11 {
		t.Fatalf("relayed result = %+v", res)
	}
}

// TestClusterSSERelayThroughNonOwner pins the streaming relay: an SSE
// subscription opened against a node that did not mint the job streams
// progress and the terminal result event.
func TestClusterSSERelayThroughNonOwner(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 2})
	req := `{"solver":"saim","options":{"seed":5,"iterations":120,"sweeps_per_run":60},"model":` + knapWire + `}`
	_, body := post(t, tc.urls["c1"]+"/v1/jobs", req)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	relay := tc.otherNode(mintOf(t, env.ID))

	resp, err := http.Get(tc.urls[relay] + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("relayed content type %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(events) == 0 || events[len(events)-1] != "result" {
		t.Fatalf("relayed SSE events = %v, want trailing result", events)
	}
}

// TestClusterWorkStealing loads one node with dedup-exempt jobs (those
// serve locally, so they pile onto one queue) and checks idle peers pull
// them over and every job still completes with its original id.
func TestClusterWorkStealing(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 1, QueueDepth: 32})
	submit := `{"solver":"saim","no_dedup":true,"options":{"seed":%d,"iterations":100000,"sweeps_per_run":50,"time_limit_ms":30000},"model":` + knapWire + `}`
	const njobs = 8
	var ids []string
	for i := 0; i < njobs; i++ {
		resp, body := post(t, tc.urls["c1"]+"/v1/jobs", fmt.Sprintf(submit, 1000+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var env jobEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if mint := mintOf(t, env.ID); mint != "c1" {
			t.Fatalf("no_dedup submission routed away: minted by %q", mint)
		}
		ids = append(ids, env.ID)
	}
	for _, id := range ids {
		if res := waitResult(t, tc.urls["c1"], id); !res.Feasible {
			t.Fatalf("job %s infeasible", id)
		}
	}
	if stolen := tc.mgrs["c1"].Stats().Stolen; stolen == 0 {
		t.Fatal("no job was stolen from the loaded node")
	}
	done := tc.mgrs["c1"].Stats().StolenDone
	requeued := tc.mgrs["c1"].Stats().Requeued
	if done == 0 && requeued == 0 {
		t.Fatal("stolen jobs neither completed remotely nor returned")
	}
}

// TestClusterIntrospection pins /v1/cluster: every node reports itself,
// the full ring, and all peers.
func TestClusterIntrospection(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 1})
	for _, id := range tc.ids {
		resp, body := get(t, tc.urls[id]+"/v1/cluster")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster info on %s: %d %s", id, resp.StatusCode, body)
		}
		var info cluster.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Self != id || len(info.Ring) != 3 || len(info.Peers) != 3 {
			t.Fatalf("info on %s = %+v", id, info)
		}
	}
}

// TestClusterDrainingHealthz pins the drain surface: healthz flips to
// 503 with the literal body "draining", and peers stop seeing the node
// as a routing target.
func TestClusterDrainingHealthz(t *testing.T) {
	tc := startCluster(t, 2, service.Config{Workers: 1})
	resp, body := get(t, tc.urls["c1"]+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d %s", resp.StatusCode, body)
	}
	tc.srvs["c1"].setDraining()
	resp, body = get(t, tc.urls["c1"]+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	if string(body) != "draining" {
		t.Fatalf("healthz drain body = %q, want %q", body, "draining")
	}
	// The ping surface advertises the drain to peers.
	resp, body = get(t, tc.urls["c1"]+"/v1/cluster/ping")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping during drain: %d", resp.StatusCode)
	}
	var ping cluster.PingReply
	if err := json.Unmarshal(body, &ping); err != nil {
		t.Fatal(err)
	}
	if !ping.Draining {
		t.Fatal("ping does not advertise the drain")
	}
}

// TestClusterMalformedModelNotForwarded pins where a malformed model is
// rejected in cluster mode: by the node that received it, which decodes
// each submission once before routing. Sent alone it gets a 400 and in a
// batch an error entry, through every node, and no node forwards it or
// enqueues it.
func TestClusterMalformedModelNotForwarded(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 1})
	models := []string{
		`{"families":"take"}`,
		`{"families":[{"name":"take","n":2}],"objective":{"lin":[{"v":7,"w":1}]}}`,
	}
	for _, id := range tc.ids {
		for _, m := range models {
			sub := `{"solver":"saim","model":` + m + `}`
			resp, body := post(t, tc.urls[id]+"/v1/jobs", sub)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("submit %s via %s: %d %s, want 400", m, id, resp.StatusCode, body)
			}
			resp, body = post(t, tc.urls[id]+"/v1/batch", `{"jobs":[`+sub+`]}`)
			var out struct {
				Jobs []batchEntry `json:"jobs"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("batch via %s: %d %s: %v", id, resp.StatusCode, body, err)
			}
			if resp.StatusCode != http.StatusAccepted || len(out.Jobs) != 1 || out.Jobs[0].Error == "" || out.Jobs[0].Job != nil {
				t.Errorf("batch %s via %s: %d %s, want one error entry", m, id, resp.StatusCode, body)
			}
		}
	}
	for _, id := range tc.ids {
		info := tc.srvs[id].node.Info()
		if info.Proxied != 0 || info.Fallbacks != 0 {
			t.Errorf("node %s proxied %d and fell back %d times, want neither", id, info.Proxied, info.Fallbacks)
		}
		if n := tc.mgrs[id].Stats().Submitted; n != 0 {
			t.Errorf("node %s enqueued %d submissions, want 0", id, n)
		}
	}
}
