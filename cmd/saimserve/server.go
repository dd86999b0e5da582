package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/cluster"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/service"
)

// server is the HTTP face of a service.Manager. Routes:
//
//	POST   /v1/jobs             submit one model           → job envelope
//	POST   /v1/batch            submit many                → one envelope each
//	GET    /v1/jobs/{id}        status snapshot
//	GET    /v1/jobs/{id}/result final result (409 while running)
//	GET    /v1/jobs/{id}/events SSE progress stream + final result event
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/solvers          registered backend names
//	GET    /v1/healthz          liveness (503 "draining" once drain began)
//	GET    /statusz             manager stats (queue depth, worker
//	                            utilization, retry/panic counters, WAL lag)
//	GET    /v1/cluster[/...]    cluster introspection + inter-node
//	                            protocol (cluster mode only)
//
// In cluster mode every route works against any node: submissions are
// routed to the fingerprint's ring owner, and by-id requests to the
// node that minted the id (parsed from the "job-<node>-NNNNNN" shape),
// with SSE streams relayed through.
type server struct {
	mgr      *service.Manager
	node     *cluster.Node // nil outside cluster mode
	mux      *http.ServeMux
	draining atomic.Bool
}

// publishStatsOnce exposes the first server's stats through the expvar
// registry, so the standard /debug/vars machinery and expvar-scraping
// agents see them too. Once per process: expvar panics on duplicate
// names, and test binaries build many servers.
var publishStatsOnce sync.Once

// publishStats registers "saimserve.stats" (the whole snapshot as one
// JSON blob) plus one "saimserve.<counter>" expvar per Stats field, each
// a live integer — scrapers can diff queue depth, retries, panics, and
// WAL lag without parsing the blob.
func publishStats(mgr *service.Manager) {
	publishStatsOnce.Do(func() {
		expvar.Publish("saimserve.stats", expvar.Func(func() any { return mgr.Stats() }))
		ints := map[string]func(service.Stats) int64{
			"workers":      func(s service.Stats) int64 { return int64(s.Workers) },
			"queue_depth":  func(s service.Stats) int64 { return int64(s.QueueDepth) },
			"queued":       func(s service.Stats) int64 { return int64(s.Queued) },
			"busy":         func(s service.Stats) int64 { return int64(s.Busy) },
			"submitted":    func(s service.Stats) int64 { return s.Submitted },
			"dedup_hits":   func(s service.Stats) int64 { return s.DedupHits },
			"completed":    func(s service.Stats) int64 { return s.Completed },
			"failed":       func(s service.Stats) int64 { return s.Failed },
			"cancelled":    func(s service.Stats) int64 { return s.Cancelled },
			"expired":      func(s service.Stats) int64 { return s.Expired },
			"retries":      func(s service.Stats) int64 { return s.Retries },
			"panics":       func(s service.Stats) int64 { return s.Panics },
			"quarantined":  func(s service.Stats) int64 { return s.Quarantined },
			"stolen":       func(s service.Stats) int64 { return s.Stolen },
			"stolen_done":  func(s service.Stats) int64 { return s.StolenDone },
			"requeued":     func(s service.Stats) int64 { return s.Requeued },
			"wal_segments": func(s service.Stats) int64 { return int64(s.WALSegments) },
			"wal_bytes":    func(s service.Stats) int64 { return s.WALBytes },
			"wal_appended": func(s service.Stats) int64 { return s.WALAppended },
			"wal_synced":   func(s service.Stats) int64 { return s.WALSynced },
			"wal_lag":      func(s service.Stats) int64 { return s.WALLag },
			"wal_errors":   func(s service.Stats) int64 { return s.WALErrors },
		}
		for name, get := range ints {
			get := get
			expvar.Publish("saimserve."+name, expvar.Func(func() any { return get(mgr.Stats()) }))
		}
	})
}

// newServer builds a single-node server (no cluster routing).
func newServer(mgr *service.Manager) *server { return newNodeServer(mgr, nil) }

// newNodeServer builds the HTTP face of one manager, with cluster
// routing when node is non-nil.
func newNodeServer(mgr *service.Manager, node *cluster.Node) *server {
	s := &server{mgr: mgr, node: node, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.mgr.Stats())
	})
	if node != nil {
		h := node.Handler()
		s.mux.Handle("/v1/cluster", h)
		s.mux.Handle("/v1/cluster/", h)
	}
	publishStats(mgr)
	return s
}

// setDraining flips /v1/healthz to 503 "draining" and advertises the
// drain to cluster peers, so load balancers and thieves stop sending
// work while queued and running jobs finish.
func (s *server) setDraining() {
	s.draining.Store(true)
	if s.node != nil {
		s.node.SetDraining(true)
	}
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 with
// the literal body "draining" once SIGTERM drain began — routing stops
// before the node disappears, not after.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---------------------------------------------------------------- wire ---

// submitRequest is one submission: a model in the canonical JSON wire
// format of package model, a backend name, and optional options.
type submitRequest struct {
	Model   json.RawMessage       `json:"model"`
	Solver  string                `json:"solver"`
	Options *service.SolveOptions `json:"options,omitempty"`
	NoDedup bool                  `json:"no_dedup,omitempty"`
}

// jobEnvelope is the submit/status body.
type jobEnvelope struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Hits counts submissions served by this job; > 1 means the request
	// was deduplicated onto an earlier identical submission.
	Hits        int           `json:"hits"`
	Solver      string        `json:"solver"`
	SubmittedAt string        `json:"submitted_at,omitempty"`
	StartedAt   string        `json:"started_at,omitempty"`
	FinishedAt  string        `json:"finished_at,omitempty"`
	Progress    *wireProgress `json:"progress,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// wireProgress is one streamed Progress snapshot. BestCost is omitted
// while no feasible sample exists (its in-memory value, +Inf, has no JSON
// encoding).
type wireProgress struct {
	Solver        string   `json:"solver"`
	Iteration     int      `json:"iteration"`
	Iterations    int      `json:"iterations,omitempty"`
	BestCost      *float64 `json:"best_cost,omitempty"`
	FeasibleRatio float64  `json:"feasible_ratio"`
	LambdaNorm    float64  `json:"lambda_norm,omitempty"`
	Sweeps        int64    `json:"sweeps"`
}

// wireResult is the final result body. Cost is the minimization-frame
// cost; Objective the value in the model's declared frame (they differ
// only for Maximize models). Both are omitted when no feasible assignment
// was found.
type wireResult struct {
	Solver        string   `json:"solver"`
	Winner        string   `json:"winner,omitempty"`
	Feasible      bool     `json:"feasible"`
	Cost          *float64 `json:"cost,omitempty"`
	Objective     *float64 `json:"objective,omitempty"`
	Assignment    []int    `json:"assignment,omitempty"`
	FeasibleRatio float64  `json:"feasible_ratio"`
	Penalty       float64  `json:"penalty,omitempty"`
	Sweeps        int64    `json:"sweeps"`
	Iterations    int      `json:"iterations"`
	Stopped       string   `json:"stopped"`
	Optimal       bool     `json:"optimal,omitempty"`
}

func toWireProgress(p saim.Progress) *wireProgress {
	out := &wireProgress{
		Solver:        p.Solver,
		Iteration:     p.Iteration,
		Iterations:    p.Iterations,
		FeasibleRatio: p.FeasibleRatio,
		LambdaNorm:    p.LambdaNorm,
		Sweeps:        p.Sweeps,
	}
	if !math.IsInf(p.BestCost, 0) && !math.IsNaN(p.BestCost) {
		c := p.BestCost
		out.BestCost = &c
	}
	return out
}

func toWireResult(sol *model.Solution) *wireResult {
	res := sol.Result()
	out := &wireResult{
		Solver:        res.Solver,
		Winner:        res.Winner,
		Feasible:      !res.Infeasible(),
		FeasibleRatio: res.FeasibleRatio,
		Penalty:       res.Penalty,
		Sweeps:        res.Sweeps,
		Iterations:    res.Iterations,
		Stopped:       res.Stopped.String(),
		Optimal:       res.Optimal,
	}
	if out.Feasible {
		cost, objective := res.Cost, sol.Objective()
		out.Cost = &cost
		out.Objective = &objective
		out.Assignment = sol.Assignment()
	}
	return out
}

func envelope(j *service.Job) jobEnvelope {
	st := j.Status()
	env := jobEnvelope{
		ID:     st.ID,
		State:  st.State.String(),
		Hits:   st.Hits,
		Solver: st.Solver,
		Error:  st.Err,
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	env.SubmittedAt = stamp(st.Submitted)
	env.StartedAt = stamp(st.Started)
	env.FinishedAt = stamp(st.Finished)
	if st.HasProgress {
		env.Progress = toWireProgress(st.Progress)
	}
	return env
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// ------------------------------------------------------------- handlers ---

// decodeModel decodes a submission's model. Each request decodes it once:
// cluster routing fingerprints the result and submit enqueues it. The
// request decode has already checked the model's bytes, so they go
// straight to the model's own decoder rather than through json.Unmarshal,
// which would scan them again first.
func decodeModel(req submitRequest) (*model.Model, error) {
	if len(req.Model) == 0 {
		return nil, fmt.Errorf("missing model")
	}
	m := model.New()
	if err := m.UnmarshalJSON(req.Model); err != nil {
		return nil, err
	}
	return m, nil
}

// submit enqueues one submission with its decoded model, mapping service
// errors onto HTTP statuses (503 for backpressure/drain, 413 for a model
// over the compile budget, 400 for other bad requests).
func (s *server) submit(req submitRequest, m *model.Model) (*service.Job, int, error) {
	// Options go through as wire options: the manager lowers them itself,
	// so in durable mode they are journaled and survive a restart.
	job, err := s.mgr.Submit(service.Request{
		Model:       m,
		Solver:      req.Solver,
		WireOptions: req.Options,
		NoDedup:     req.NoDedup,
	})
	var tooLarge *service.ModelTooLargeError
	switch {
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed):
		return nil, http.StatusServiceUnavailable, err
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge, err
	case err != nil:
		return nil, http.StatusBadRequest, err
	}
	return job, http.StatusAccepted, nil
}

// retryAfterSeconds is the backpressure hint sent with every 503: the
// queue is bounded and jobs drain continuously, so a short fixed retry
// interval beats having every rejected client hammer immediately.
const retryAfterSeconds = "1"

// maxRequestBody bounds submission bodies (32 MiB holds ~1M-term models
// with room to spare) so a hostile client cannot stream unbounded JSON.
const maxRequestBody = 32 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req submitRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, err := decodeModel(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.forwardSubmit(w, r, req, m, raw) {
		return
	}
	job, status, err := s.submit(req, m)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, envelope(job))
}

// ------------------------------------------------------- cluster routing ---

// submitOwner places one decoded submission on the ring: the owning
// peer's id and address, or local=true when this node should serve it
// itself — outside cluster mode, for requests that already crossed a
// node, for dedup-exempt submissions (any shard may run those), for
// models the local path will reject with a better error, and when this
// node owns the fingerprint.
func (s *server) submitOwner(r *http.Request, req submitRequest, m *model.Model) (id, addr string, local bool) {
	if s.node == nil || r.Header.Get(cluster.ForwardHeader) != "" || req.NoDedup {
		return "", "", true
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return "", "", true
	}
	return s.node.RouteKey(fp)
}

// forwardSubmit relays a submission to its ring owner and writes the
// owner's response through, reporting whether it did. An unusable or
// unreachable owner fails over to local serving — availability beats
// strict sharding; the cost is a possible duplicate solve on the wrong
// shard, never a lost submission.
func (s *server) forwardSubmit(w http.ResponseWriter, r *http.Request, req submitRequest, m *model.Model, raw []byte) bool {
	owner, addr, local := s.submitOwner(r, req, m)
	if local || !s.node.Usable(owner) {
		return false
	}
	status, body, err := s.node.RouteSubmit(r.Context(), addr, raw)
	if err != nil {
		s.node.ReportFailure(owner)
		s.node.NoteFallback()
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return true
}

// forwardJob relays a by-id request (status, result, cancel, events) to
// the node that minted the id, streaming the response — SSE relays in
// real time. It reports false when the id is local (or unparseable —
// the local manager then produces the 404). Unlike submissions, by-id
// requests cannot fail over: only the minting node knows the job, so an
// unreachable owner is surfaced as 503/502.
func (s *server) forwardJob(w http.ResponseWriter, r *http.Request) bool {
	if s.node == nil || r.Header.Get(cluster.ForwardHeader) != "" {
		return false
	}
	id := r.PathValue("id")
	mint, ok := s.node.MintNode(id)
	if !ok || mint == s.node.Self() {
		return false
	}
	addr, ok := s.node.Addr(mint)
	if !ok {
		return false
	}
	if !s.node.Usable(mint) {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("job %q lives on node %q, which is currently unavailable", id, mint))
		return true
	}
	s.node.NoteRelay()
	if err := s.node.Forward(w, r, addr); err != nil {
		s.node.ReportFailure(mint)
		writeError(w, http.StatusBadGateway, fmt.Errorf("node %q unreachable: %v", mint, err))
	}
	return true
}

// batchRequest submits several jobs in one call; each entry succeeds or
// fails independently.
type batchRequest struct {
	Jobs []submitRequest `json:"jobs"`
}

type batchEntry struct {
	Job   *jobEnvelope `json:"job,omitempty"`
	Error string       `json:"error,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	out := make([]batchEntry, len(req.Jobs))
	for i, sub := range req.Jobs {
		out[i] = s.batchSubmit(r, sub)
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": out})
}

// batchSubmit places one batch entry: rejected here when its model does
// not decode, routed to its ring owner in cluster mode (each entry
// independently — a batch may span shards), locally otherwise or on
// forward failure.
func (s *server) batchSubmit(r *http.Request, sub submitRequest) batchEntry {
	m, err := decodeModel(sub)
	if err != nil {
		return batchEntry{Error: err.Error()}
	}
	if owner, addr, local := s.submitOwner(r, sub, m); !local && s.node.Usable(owner) {
		raw, err := json.Marshal(sub)
		if err == nil {
			status, body, err := s.node.RouteSubmit(r.Context(), addr, raw)
			if err == nil {
				return parseBatchEntry(status, body)
			}
			s.node.ReportFailure(owner)
			s.node.NoteFallback()
		}
	}
	job, _, err := s.submit(sub, m)
	if err != nil {
		return batchEntry{Error: err.Error()}
	}
	env := envelope(job)
	return batchEntry{Job: &env}
}

// parseBatchEntry folds a forwarded single-submit response into the
// batch shape: 2xx bodies are job envelopes, everything else carries an
// error field.
func parseBatchEntry(status int, body []byte) batchEntry {
	if status >= 200 && status < 300 {
		var env jobEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return batchEntry{Error: fmt.Sprintf("bad response from owner node: %v", err)}
		}
		return batchEntry{Job: &env}
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return batchEntry{Error: e.Error}
	}
	return batchEntry{Error: fmt.Sprintf("owner node returned HTTP %d", status)}
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*service.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.forwardJob(w, r) {
		return
	}
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, envelope(j))
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.forwardJob(w, r) {
		return
	}
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	sol, err := j.Solution()
	switch {
	case errors.Is(err, service.ErrNotFinished):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		// Failed or cancelled-before-run: surface the job's error.
		writeJSON(w, http.StatusOK, map[string]any{"error": err.Error(), "state": j.Status().State.String()})
	default:
		writeJSON(w, http.StatusOK, toWireResult(sol))
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if s.forwardJob(w, r) {
		return
	}
	if j, ok := s.job(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusOK, envelope(j))
	}
}

func (s *server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"solvers": saim.Solvers()})
}

// handleEvents streams a job's progress as Server-Sent Events: one
// "progress" event per snapshot (coalesced under load so the stream never
// lags the solve), then a single "result" event when the job finishes,
// then EOF. A client disconnect just unsubscribes — the solve continues.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.forwardJob(w, r) {
		return
	}
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	ch, stop := j.Subscribe(16)
	defer stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-ch:
			if !ok {
				// Job finished: emit the terminal event.
				if sol, err := j.Solution(); err == nil {
					send("result", toWireResult(sol))
				} else {
					send("error", map[string]string{
						"state": j.Status().State.String(),
						"error": err.Error(),
					})
				}
				return
			}
			if !send("progress", toWireProgress(p)) {
				return
			}
		}
	}
}
