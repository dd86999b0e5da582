package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/service"
)

// Config wires one process into the cluster.
type Config struct {
	// Self is this node's id; it must appear as a key in Peers.
	Self string
	// Peers maps node id → "host:port" as other nodes reach it, the
	// static member set (self included).
	Peers map[string]string
	// Manager is the local job plane.
	Manager *service.Manager

	// VirtualNodes is the ring vnode count per member (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// HeartbeatInterval paces the failure detector (default 1s); peers
	// silent for 3 intervals turn Suspect, for 6 they are evicted from
	// the ring. SuspectAfter/EvictAfter override those multiples.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	EvictAfter        time.Duration

	// StealInterval paces the work-stealing probe (default 200ms; < 0
	// disables stealing). StealLease bounds how long a victim waits for
	// a thief's result before re-queuing the job (default 60s).
	StealInterval time.Duration
	StealLease    time.Duration

	// Logf receives operational notices (nil silences them).
	Logf func(format string, args ...any)
}

// Node is one cluster member: the ring, the failure detector, the
// work-stealing loop, and the /v1/cluster HTTP surface, all bound to the
// local service.Manager.
type Node struct {
	cfg    Config
	ring   *Ring
	mem    *membership
	client *Client
	mgr    *service.Manager

	draining atomic.Bool
	started  time.Time

	ctr struct {
		proxied   atomic.Int64 // client requests forwarded to an owner
		fallbacks atomic.Int64 // forwards that failed over to local serving
		relays    atomic.Int64 // SSE/status/result/cancel routed by job id
		steals    atomic.Int64 // jobs pulled from peers and run here
		stealErrs atomic.Int64 // steal attempts that failed mid-protocol
	}

	wg     sync.WaitGroup
	cancel context.CancelFunc
	closed sync.Once
}

// New validates the configuration and builds the node (call Start to
// launch heartbeats and stealing).
func New(cfg Config) (*Node, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("cluster: Config.Manager is required")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q missing from peers", cfg.Self)
	}
	for id, addr := range cfg.Peers {
		if id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: empty peer entry %q=%q", id, addr)
		}
		if strings.ContainsAny(id, "-/ ") {
			return nil, fmt.Errorf("cluster: node id %q must not contain '-', '/', or spaces (ids embed into job ids)", id)
		}
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 200 * time.Millisecond
	}
	if cfg.StealLease <= 0 {
		cfg.StealLease = 60 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:     cfg,
		ring:    NewRing(cfg.VirtualNodes),
		client:  NewClient(0),
		mgr:     cfg.Manager,
		started: time.Now(),
	}
	n.mem = newMembership(membershipConfig{
		self:     cfg.Self,
		peers:    cfg.Peers,
		interval: cfg.HeartbeatInterval,
		suspect:  cfg.SuspectAfter,
		evict:    cfg.EvictAfter,
		ping: func(ctx context.Context, addr string) (bool, error) {
			reply, err := n.client.Ping(ctx, addr)
			return reply.Draining, err
		},
		onChange: func(live []string) {
			n.ring.Reset(live)
			n.cfg.Logf("cluster: ring members now %v", live)
		},
	})
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	n.ring.Reset(ids)
	return n, nil
}

// Start launches the heartbeat and work-stealing loops.
func (n *Node) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.mem.start()
	if n.cfg.StealInterval > 0 && len(n.cfg.Peers) > 1 {
		n.wg.Add(1)
		go n.stealLoop(ctx)
	}
}

// Close stops the loops and waits for in-flight stolen solves to report
// back (their jobs would otherwise sit on a peer's lease clock).
func (n *Node) Close() {
	n.closed.Do(func() {
		if n.cancel != nil {
			n.cancel()
		}
		n.mem.stop()
		n.wg.Wait()
	})
}

// SetDraining flips the drain flag: heartbeat replies advertise it so
// peers stop routing new work and stealing from this node.
func (n *Node) SetDraining(v bool) { n.draining.Store(v) }

// Draining reports the drain flag.
func (n *Node) Draining() bool { return n.draining.Load() }

// Self returns this node's id.
func (n *Node) Self() string { return n.cfg.Self }

// Addr resolves a node id to its address.
func (n *Node) Addr(id string) (string, bool) {
	addr, ok := n.cfg.Peers[id]
	return addr, ok
}

// RouteKey places a fingerprint on the ring: the owning node's id and
// address, and whether that is this node. With the whole ring evicted
// but self (a total partition), self owns everything.
func (n *Node) RouteKey(fingerprint string) (id, addr string, local bool) {
	owner, ok := n.ring.Owner(fingerprint)
	if !ok || owner == n.cfg.Self {
		return n.cfg.Self, n.cfg.Peers[n.cfg.Self], true
	}
	return owner, n.cfg.Peers[owner], false
}

// MintNode extracts the minting node from a cluster-scoped job id
// ("job-<node>-000042"). ok is false for ids in the single-node shape —
// the caller should fall back to the local manager.
func (n *Node) MintNode(jobID string) (id string, ok bool) {
	rest, found := strings.CutPrefix(jobID, "job-")
	if !found {
		return "", false
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return "", false
	}
	id = rest[:i]
	if _, known := n.cfg.Peers[id]; !known {
		return "", false
	}
	return id, true
}

// Usable reports whether a peer can take proxy/steal traffic right now
// (known, not evicted, not draining).
func (n *Node) Usable(id string) bool { return n.mem.isUsable(id) }

// ReportFailure tells the failure detector a peer just refused a
// connection, aging it to Suspect ahead of the next heartbeat.
func (n *Node) ReportFailure(id string) { n.mem.reportFailure(id) }

// Forward proxies a client request to a peer, counting it. See
// Client.Forward for stream semantics.
func (n *Node) Forward(w http.ResponseWriter, r *http.Request, addr string) error {
	n.ctr.proxied.Add(1)
	return n.client.Forward(w, r, addr, n.cfg.Self)
}

// RouteSubmit relays a submission body to a peer, counting the proxy.
// See Client.PostJob.
func (n *Node) RouteSubmit(ctx context.Context, addr string, body []byte) (int, []byte, error) {
	n.ctr.proxied.Add(1)
	return n.client.PostJob(ctx, addr, n.cfg.Self, body)
}

// NoteFallback counts a forward that failed over to local serving.
func (n *Node) NoteFallback() { n.ctr.fallbacks.Add(1) }

// NoteRelay counts a by-job-id routed request.
func (n *Node) NoteRelay() { n.ctr.relays.Add(1) }

// ------------------------------------------------------------ stealing ---

// stealLoop is the idle-node side of work stealing: when local workers
// have spare capacity, poll peers' queue depths and pull queued jobs
// over. The victim keeps the job's identity; this node only lends CPU.
func (n *Node) stealLoop(ctx context.Context) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.StealInterval)
	defer ticker.Stop()
	// Rotate the probe order deterministically so one victim is not
	// hammered by every tick (seeded-randomness discipline: no ambient
	// rand; rotation spreads load just as well).
	peers := make([]string, 0, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		if id != n.cfg.Self {
			peers = append(peers, id)
		}
	}
	tick := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if n.draining.Load() {
			continue
		}
		st := n.mgr.Stats()
		idle := st.Workers - st.Busy - st.Queued
		if idle <= 0 {
			continue
		}
		tick++
		for i := 0; i < len(peers) && idle > 0; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			id := peers[(tick+i)%len(peers)]
			if !n.mem.isUsable(id) {
				continue
			}
			addr := n.cfg.Peers[id]
			ps, err := n.client.Stats(ctx, addr)
			if err != nil || ps.Draining || ps.Stats.Queued == 0 {
				continue
			}
			sj, err := n.client.Steal(ctx, addr)
			if err != nil {
				n.ctr.stealErrs.Add(1)
				continue
			}
			if sj == nil {
				continue
			}
			idle--
			n.wg.Add(1)
			go n.runStolen(ctx, addr, sj)
		}
	}
}

// runStolen executes one stolen job on the local manager and reports the
// outcome back to the victim. Transient local rejections (queue filled
// between the idle check and the submit) release the job instead of
// failing it; only permanent errors (unparseable model, unknown solver)
// fail it at the victim.
func (n *Node) runStolen(ctx context.Context, victimAddr string, sj *service.StolenJob) {
	defer n.wg.Done()
	report := func(res *service.RemoteResult) {
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := n.client.Complete(rctx, victimAddr, sj.ID, res); err != nil {
			// The victim's lease re-queues the job; losing this report
			// costs duplicated work, never a lost job.
			n.ctr.stealErrs.Add(1)
			n.cfg.Logf("cluster: report stolen %s to %s: %v", sj.ID, victimAddr, err)
		}
	}
	release := func() { report(&service.RemoteResult{Released: true}) }

	// The model's own decoder checks the bytes as it reads them;
	// json.Unmarshal would scan them once more first.
	mdl := model.New()
	if err := mdl.UnmarshalJSON(sj.Model); err != nil {
		report(&service.RemoteResult{Error: fmt.Sprintf("stolen model does not parse: %v", err)})
		return
	}
	job, err := n.mgr.Submit(service.Request{
		Model:       mdl,
		Solver:      sj.Solver,
		WireOptions: sj.Options,
		TimeLimit:   time.Duration(sj.TimeLimitMS) * time.Millisecond,
		// The victim's shard already dedups this key; a local entry would
		// shadow this node's own shard with results it does not own.
		NoDedup: true,
	})
	switch {
	case err == nil:
	case isTransientSubmitErr(err):
		release()
		return
	default:
		report(&service.RemoteResult{Error: err.Error()})
		return
	}
	n.ctr.steals.Add(1)
	select {
	case <-job.Done():
	case <-ctx.Done():
		// Node shutdown mid-solve: cancel and hand back whatever the
		// local manager finalizes; the victim's lease covers the rest.
		job.Cancel()
		<-job.Done()
	}
	res, rerr := job.Result()
	if rerr != nil {
		report(&service.RemoteResult{Error: rerr.Error()})
		return
	}
	report(&service.RemoteResult{Result: service.ToWireResult(res)})
}

// isTransientSubmitErr classifies local submit failures that should
// release the stolen job back to its victim rather than fail it.
func isTransientSubmitErr(err error) bool {
	return errors.Is(err, service.ErrQueueFull) || errors.Is(err, service.ErrClosed)
}

// ------------------------------------------------------- HTTP surface ---

// Info is the /v1/cluster introspection body.
type Info struct {
	Self     string     `json:"self"`
	Draining bool       `json:"draining,omitempty"`
	Started  time.Time  `json:"started"`
	Ring     []string   `json:"ring"`
	Peers    []PeerInfo `json:"peers"`
	// Counters.
	Proxied    int64 `json:"proxied"`
	Fallbacks  int64 `json:"fallbacks"`
	Relays     int64 `json:"relays"`
	Steals     int64 `json:"steals"`
	StealErrs  int64 `json:"steal_errors"`
	Stolen     int64 `json:"stolen"`
	StolenDone int64 `json:"stolen_done"`
	Requeued   int64 `json:"requeued"`
}

// Info snapshots the node for introspection. The Stolen* counters come
// from the manager (jobs this node lent out); Steals counts jobs this
// node pulled in.
func (n *Node) Info() Info {
	st := n.mgr.Stats()
	return Info{
		Self:       n.cfg.Self,
		Draining:   n.draining.Load(),
		Started:    n.started,
		Ring:       n.ring.Nodes(),
		Peers:      n.mem.snapshot(),
		Proxied:    n.ctr.proxied.Load(),
		Fallbacks:  n.ctr.fallbacks.Load(),
		Relays:     n.ctr.relays.Load(),
		Steals:     n.ctr.steals.Load(),
		StealErrs:  n.ctr.stealErrs.Load(),
		Stolen:     st.Stolen,
		StolenDone: st.StolenDone,
		Requeued:   st.Requeued,
	}
}

// Handler returns the inter-node HTTP surface, to be mounted by the
// serving binary:
//
//	GET  /v1/cluster               introspection (Info)
//	GET  /v1/cluster/ping          heartbeat probe
//	GET  /v1/cluster/stats         manager snapshot for steal decisions
//	POST /v1/cluster/steal         pull one queued job (200 StolenJob | 204)
//	POST /v1/cluster/complete/{id} report a stolen job's outcome
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.Info())
	})
	mux.HandleFunc("GET /v1/cluster/ping", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, PingReply{ID: n.cfg.Self, Draining: n.draining.Load()})
	})
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsReply{
			ID:       n.cfg.Self,
			Draining: n.draining.Load(),
			Stats:    n.mgr.Stats(),
		})
	})
	mux.HandleFunc("POST /v1/cluster/steal", func(w http.ResponseWriter, r *http.Request) {
		if n.draining.Load() {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		sj, ok := n.mgr.Steal(n.cfg.StealLease)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, sj)
	})
	mux.HandleFunc("POST /v1/cluster/complete/{id}", func(w http.ResponseWriter, r *http.Request) {
		var res service.RemoteResult
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&res); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		id := r.PathValue("id")
		var err error
		switch {
		case res.Released:
			err = n.mgr.ReleaseStolen(id)
		case res.Result != nil:
			err = n.mgr.CompleteRemote(id, service.ParseWireResult(res.Result), "")
		default:
			err = n.mgr.CompleteRemote(id, nil, res.Error)
		}
		switch {
		case errors.Is(err, service.ErrNotStolen):
			// Lease already expired and the job went back to the local
			// queue; the thief's work is discarded. 409 tells it so.
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		case err != nil:
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		default:
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
	})
	return mux
}
