package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ising-machines/saim/service"
)

// knapWire is a small knapsack in the JSON wire format (optimum: items 0
// and 1 at weight 5, value 11, under capacity 5).
const knapWire = `{
  "families": [{"name": "take", "n": 3}],
  "maximize": true,
  "objective": {"lin": [{"v":0,"w":6},{"v":1,"w":5},{"v":2,"w":8}]},
  "constraints": [{"name":"cap","sense":"<=",
    "expr":{"lin":[{"v":0,"w":2},{"v":1,"w":3},{"v":2,"w":4}]},"bound":5}]
}`

func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Manager) {
	t.Helper()
	mgr := service.New(cfg)
	ts := httptest.NewServer(newServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	return ts, mgr
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitStatusResult drives the happy path over real HTTP: submit a
// model, poll status, and read the exact-solver result.
func TestSubmitStatusResult(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	resp, body := post(t, ts.URL+"/v1/jobs", `{"solver":"exact","model":`+knapWire+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.ID == "" {
		t.Fatalf("no job id in %s", body)
	}

	var result wireResult
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+env.ID+"/result")
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &result); err != nil {
				t.Fatal(err)
			}
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result: %d %s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !result.Feasible || result.Objective == nil || *result.Objective != 11 {
		t.Fatalf("result = %s", body)
	}
	if result.Stopped != "completed" || !result.Optimal {
		t.Fatalf("stopped=%q optimal=%v", result.Stopped, result.Optimal)
	}

	resp, body = get(t, ts.URL+"/v1/jobs/"+env.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st jobEnvelope
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("state = %q", st.State)
	}
}

// TestDuplicateSubmissionHTTP pins dedup over the wire: the second
// identical submission returns the same job id with hits incremented.
func TestDuplicateSubmissionHTTP(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	req := `{"solver":"saim","options":{"seed":7,"iterations":50,"sweeps_per_run":100},"model":` + knapWire + `}`
	_, body1 := post(t, ts.URL+"/v1/jobs", req)
	_, body2 := post(t, ts.URL+"/v1/jobs", req)
	var a, b jobEnvelope
	if err := json.Unmarshal(body1, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &b); err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("duplicate submission got a new job: %s vs %s", a.ID, b.ID)
	}
	if b.Hits < 2 {
		t.Fatalf("hits = %d, want ≥ 2", b.Hits)
	}
}

// TestSSEEvents pins the streaming endpoint: progress events arrive in
// order and the stream terminates with a result event.
func TestSSEEvents(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	_, body := post(t, ts.URL+"/v1/jobs",
		`{"solver":"saim","options":{"seed":3,"iterations":80,"sweeps_per_run":100},"model":`+knapWire+`}`)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []string
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	if events[len(events)-1] != "result" {
		t.Fatalf("last event %q, want result (events: %v)", events[len(events)-1], events)
	}
	for _, e := range events[:len(events)-1] {
		if e != "progress" {
			t.Fatalf("unexpected event %q", e)
		}
	}
	var result wireResult
	if err := json.Unmarshal([]byte(lastData), &result); err != nil {
		t.Fatalf("final event payload: %v\n%s", err, lastData)
	}
	if !result.Feasible {
		t.Fatal("streamed result infeasible")
	}
}

// TestBatchEndpoint pins POST /v1/batch: independent entries succeed and
// fail independently.
func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	batch := fmt.Sprintf(`{"jobs":[
	  {"solver":"exact","model":%s},
	  {"solver":"greedy","model":%s},
	  {"solver":"no-such-backend","model":%s},
	  {"solver":"exact"}
	]}`, knapWire, knapWire, knapWire)
	resp, body := post(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Jobs []batchEntry `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 4 {
		t.Fatalf("entries = %d", len(out.Jobs))
	}
	if out.Jobs[0].Job == nil || out.Jobs[1].Job == nil {
		t.Fatalf("valid entries failed: %s", body)
	}
	if out.Jobs[2].Error == "" || out.Jobs[3].Error == "" {
		t.Fatalf("invalid entries accepted: %s", body)
	}
}

// TestCancelEndpoint pins DELETE /v1/jobs/{id}.
func TestCancelEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	_, body := post(t, ts.URL+"/v1/jobs",
		`{"solver":"saim","options":{"seed":1,"iterations":2000000,"sweeps_per_run":200},"model":`+knapWire+`}`)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+env.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+env.ID)
		var st jobEnvelope
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "cancelled" || st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrorStatuses pins the HTTP error mapping.
func TestErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	if resp, _ := get(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", `{"solver":"exact"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing model: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/jobs", `{"solver":"exact","model":{"families":[]}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model: %d", resp.StatusCode)
	}
	// Fill the single-worker, depth-1 queue with long jobs, then expect 503.
	long := `{"solver":"saim","no_dedup":true,"options":{"seed":%d,"iterations":2000000,"sweeps_per_run":200},"model":` + knapWire + `}`
	saw503 := false
	var ids []string
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts.URL+"/v1/jobs", fmt.Sprintf(long, i+1))
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("503 response carries no Retry-After header")
			}
			break
		}
		var env jobEnvelope
		if err := json.Unmarshal(body, &env); err == nil {
			ids = append(ids, env.ID)
		}
	}
	if !saw503 {
		t.Fatal("backpressure never surfaced as 503")
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestStatuszEndpoint pins the observability surface: /statusz reports
// the manager's counters as JSON.
func TestStatuszEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	_, body := post(t, ts.URL+"/v1/jobs", `{"solver":"exact","model":`+knapWire+`}`)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/v1/jobs/"+env.ID+"/result")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, sbody := get(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d %s", resp.StatusCode, sbody)
	}
	var st service.Stats
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatalf("statusz body %s: %v", sbody, err)
	}
	if st.Workers != 2 || st.Submitted < 1 || st.Completed < 1 {
		t.Fatalf("statusz stats = %+v", st)
	}
	if st.Durable || st.WALAppended != 0 {
		t.Fatalf("in-memory manager reports WAL activity: %+v", st)
	}
}

// A time_limit_ms beyond what a time.Duration holds is the client's error:
// neither wraps around into a short or a default limit.
func TestTimeLimitOverflowIsBadRequest(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	for _, ms := range []string{"18446744073710", "9223372036855"} {
		resp, body := post(t, ts.URL+"/v1/jobs", `{"solver":"exact","options":{"time_limit_ms":`+ms+`},"model":`+knapWire+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("time_limit_ms %s: %d %s", ms, resp.StatusCode, body)
		}
	}
}

// TestTimeLimitOverHTTP pins the wire deadline: a huge-budget job with
// time_limit_ms finishes quickly reporting "time-limit".
func TestTimeLimitOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	_, body := post(t, ts.URL+"/v1/jobs",
		`{"solver":"saim","options":{"seed":2,"iterations":2000000,"sweeps_per_run":200,"time_limit_ms":150},"model":`+knapWire+`}`)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, rbody := get(t, ts.URL+"/v1/jobs/"+env.ID+"/result")
		if resp.StatusCode == http.StatusOK {
			var result wireResult
			if err := json.Unmarshal(rbody, &result); err != nil {
				t.Fatal(err)
			}
			if result.Stopped != "time-limit" {
				t.Fatalf("stopped = %q, want time-limit", result.Stopped)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
