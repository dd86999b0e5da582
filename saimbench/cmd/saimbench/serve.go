package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/saimbench/internal/work"
)

// nodeIDs name the two saimserve nodes; a job id embeds the node that
// minted it, job-<node>-NNNNNN.
var nodeIDs = []string{"a", "b"}

const (
	// heardAfter tells a real heartbeat from the optimistic "alive" a node
	// gives its peers at boot: the first heartbeat fires one interval (1 s
	// by default) after the node starts.
	heardAfter = 100 * time.Millisecond
	// Completion is read from the job envelope's finished_at, so status
	// polls can be lazy without entering the latency: the first follows
	// the acknowledgement by firstPoll, later ones come repoll apart.
	firstPoll = 40 * time.Millisecond
	repoll    = 25 * time.Millisecond
	// jobTimeout fails a job still unfinished this long after its due time.
	jobTimeout = 30 * time.Second
	// statsEvery paces the traced run's /statusz samples.
	statsEvery = 250 * time.Millisecond
	// recentKeep bounds the completed jobs per minting node and kind that
	// repeats draw from, well inside a node's 256-entry result cache.
	recentKeep = 32
	// ladderRetries is how many failed rates a max-rate search is sized to
	// probe twice.
	ladderRetries = 2
)

// jobKinds are the fresh job kinds; fresh jobs and repeats both alternate
// them in pairs.
var jobKinds = []string{"qkp", "maxcut"}

// serve runs serve-cluster: the set-ups, a warm-up, the fixed-rate phase
// and the rate ladder, checking every result. The fixed-rate phase fills
// FixedShare of --seconds and the ladder about the rest.
func (b *bench) serve(rec *work.Recorder) (*outcome, error) {
	sc := b.scale
	client := newClient()
	defer client.CloseIdleConnections()
	var (
		setups []float64
		c      *cluster
		sp     *servePlan
		err    error
	)
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	for i := 0; i < sc.Setups; i++ {
		if c != nil {
			c.stop()
			c = nil
		}
		t0 := time.Now()
		if c, err = b.startCluster(client, fmt.Sprintf("setup%d", i)); err != nil {
			return nil, err
		}
		if sp, err = b.plan(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	g := &loadgen{client: client, recent: &recent{jobs: map[recentKey][]*request{}}}
	for _, n := range c.nodes {
		g.urls = append(g.urls, n.url)
	}
	g.samples = make([][]statSample, len(g.urls))

	// Warm-up: the fixed-rate traffic, untimed, until the nodes' result
	// caches have filled and their heaps have grown to size. Fresh nodes
	// solve and answer a third slower for their first few seconds.
	out := newOutcome()
	g.run(time.Now(), sp.warm)
	if err := b.verify(sp, sp.warm); err != nil {
		return nil, err
	}
	for _, r := range sp.warm {
		if !r.skipped {
			b.settle(out, r)
		}
	}

	before, err := snapshot(client, c)
	if err != nil {
		return nil, err
	}
	g.sampleStats = rec != nil
	start := time.Now().Add(100 * time.Millisecond)
	cpu := cpuTimes()
	g.run(start, sp.fixed)
	phase := time.Since(start)
	out.steal(b.log, cpu)
	g.sampleStats = false
	after, err := snapshot(client, c)
	if err != nil {
		return nil, err
	}
	if err := b.verify(sp, sp.fixed); err != nil {
		return nil, err
	}
	b.account(out, sp.fixed, after.sub(before), phase, g.samples, rec)
	out.e2e["setup_s"] = work.Median(setups)
	// Before the ladder, whose overloaded rates queue jobs by the hundred.
	out.e2e["peak_rss_mb"] = c.peakRSS()
	if out.e2e["max_rate_jobs_per_s"], err = b.ladder(g, sp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// servePlan is the serve-cluster's generated input: the pinned pool
// models' wire JSON, and the warm-up's and the fixed-rate phase's requests.
type servePlan struct {
	pools       map[string][]work.Ref
	wire        map[string][][]byte
	warm, fixed []*request
}

// warmStream numbers the warm-up's requests apart from the fixed-rate
// phase's (stream 0) and the ladder probes' (1 and up).
const warmStream = 1 << 32

// plan generates the request bodies: the pinned pool models through the
// public catalog and the model codec, then every submission of the warm-up
// and the fixed-rate phase.
func (b *bench) plan() (*servePlan, error) {
	sp := &servePlan{pools: map[string][]work.Ref{}, wire: map[string][][]byte{}}
	for _, kind := range []string{"qkp", "maxcut"} {
		pool, err := b.refs.Pool("serve-" + kind)
		if err != nil {
			return nil, err
		}
		sp.pools[kind] = pool
		for _, r := range pool {
			m, err := r.Model()
			if err != nil {
				return nil, err
			}
			data, err := m.MarshalJSON()
			if err != nil {
				return nil, err
			}
			sp.wire[kind] = append(sp.wire[kind], data)
		}
	}
	sc := b.scale
	sp.warm = sp.schedule(b, warmStream, time.Duration(sc.WarmSeconds*float64(time.Second)))
	sp.fixed = sp.schedule(b, 0, time.Duration(sc.FixedShare*float64(b.measure)))
	return sp, nil
}

// schedule makes one stream of fixed-rate traffic lasting span: fixed-budget
// fresh jobs, repeats and target jobs, each kind on its own schedule.
func (sp *servePlan) schedule(b *bench, stream uint64, span time.Duration) []*request {
	sc := b.scale
	reqs := sp.fresh(b, stream, max(1, int(sc.FreshRate*span.Seconds())), sc.FreshRate)
	// Repeats alternate the nodes and go in kind pairs like fresh jobs, so
	// every run repeats both kinds alike on both nodes; which completed job
	// of the kind a repeat re-sends is a seeded pick.
	hitStart := min(time.Second, span/4)
	for j := 0; ; j++ {
		offset := hitStart + time.Duration(float64(j)/sc.HitRate*float64(time.Second))
		if offset >= span {
			break
		}
		reqs = append(reqs, &request{hit: true, node: j % len(nodeIDs), job: work.Job{Kind: jobKinds[j/2%len(jobKinds)]},
			pick: work.Mix(b.seed, 7, stream, uint64(j)), offset: offset})
	}
	// Target jobs fall halfway between fresh jobs' due times.
	for j := 0; ; j++ {
		offset := time.Duration((float64(j) + 0.5) / sc.TargetRate * float64(time.Second))
		if offset >= span {
			break
		}
		job := work.TargetJob(b.seed, stream, j, len(sp.pools["qkp"]))
		target := sp.pools["qkp"][job.Index].Target(sc.JobTarget)
		reqs = append(reqs, &request{job: job, node: j % len(nodeIDs), target: target, offset: offset,
			body: work.Body(sp.wire["qkp"][job.Index], sc.TargetQKP, job.Seed, &target)})
	}
	return reqs
}

// fresh makes n fresh submissions of one stream, due at the given rate on
// alternating nodes.
func (sp *servePlan) fresh(b *bench, stream uint64, n int, rate float64) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		job := work.ServeJob(b.seed, stream, i, len(sp.pools["qkp"]), len(sp.pools["maxcut"]))
		reqs[i] = &request{
			job:    job,
			node:   i % len(nodeIDs),
			body:   work.Body(sp.wire[job.Kind][job.Index], b.scale.JobSettings(job.Kind), job.Seed, nil),
			offset: time.Duration(float64(i) / rate * float64(time.Second)),
		}
	}
	return reqs
}

// node is one saimserve child process.
type node struct {
	id, url string
	cmd     *exec.Cmd
	logFile *os.File
}

// cluster is a run's two-node durable saimserve deployment.
type cluster struct {
	nodes []*node
}

// startCluster boots both nodes (-data with the default interval fsync,
// -workers 1, no work stealing) under the run's scratch directory and waits until each has
// heard the other's heartbeat.
func (b *bench) startCluster(client *http.Client, tag string) (*cluster, error) {
	ports, err := freePorts(len(nodeIDs))
	if err != nil {
		return nil, err
	}
	peers := make([]string, len(nodeIDs))
	for i, id := range nodeIDs {
		peers[i] = fmt.Sprintf("%s=127.0.0.1:%d", id, ports[i])
	}
	c := &cluster{}
	for i, id := range nodeIDs {
		data := filepath.Join(b.runDir, tag, id)
		if err := os.MkdirAll(data, 0o755); err != nil {
			c.stop()
			return nil, err
		}
		logFile, err := os.Create(data + ".log")
		if err != nil {
			c.stop()
			return nil, err
		}
		// Work stealing is off, as in cmd/saimserve's own capacity bench:
		// with one worker per node the default 200 ms steal probe leases
		// queued jobs across nodes at arbitrary moments, and service-side
		// solve times and the latency tail then wander from run to run.
		cmd := exec.Command(filepath.Join(b.bin, "saimserve"),
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-node-id", id,
			"-peers", strings.Join(peers, ","), "-data", data, "-workers", "1", "-steal-interval", "-1s")
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			c.stop()
			return nil, fmt.Errorf("start saimserve: %w", err)
		}
		c.nodes = append(c.nodes, &node{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", ports[i]), cmd: cmd, logFile: logFile})
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range c.nodes {
		for {
			ok, err := n.heard(client)
			if ok {
				break
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("node %s never heard its peer: %v", n.id, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return c, nil
}

// heard reports whether the node's failure detector has had a heartbeat
// answered by every peer since the node started.
func (n *node) heard(client *http.Client) (bool, error) {
	var info struct {
		Started time.Time `json:"started"`
		Peers   []struct {
			ID       string    `json:"id"`
			State    string    `json:"state"`
			LastSeen time.Time `json:"last_seen"`
		} `json:"peers"`
	}
	if err := getJSON(client, n.url+"/v1/cluster", &info); err != nil {
		return false, err
	}
	for _, p := range info.Peers {
		if p.ID != n.id && (p.State != "alive" || p.LastSeen.Sub(info.Started) < heardAfter) {
			return false, nil
		}
	}
	return true, nil
}

// peakRSS is the nodes' summed peak resident memory so far, in MiB.
func (c *cluster) peakRSS() float64 {
	rss := 0.0
	for _, n := range c.nodes {
		rss += peakRSS(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	}
	return rss
}

// stop drains every node with SIGTERM and waits for it to exit, killing it
// after 30 s.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range c.nodes {
		exited := make(chan struct{})
		go func() {
			_ = n.cmd.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			_ = n.cmd.Process.Kill()
			<-exited
		}
		n.logFile.Close()
	}
	c.nodes = nil
}

// freePorts reserves n loopback ports for the nodes to bind.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// newClient returns the driver's HTTP client: one keep-alive connection per
// node, so the two senders use two connections in all.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}

// request is one submission of the load generator and all the driver
// learns about it.
type request struct {
	job    work.Job
	body   []byte
	node   int           // index of the node it is sent to
	offset time.Duration // due time after the phase start
	hit    bool          // a repeat of a completed fresh job
	pick   uint64        // hit: seeded choice of the job it repeats
	orig   *request      // hit: the fresh request it repeats
	target float64       // target job: the cost its result must meet

	due, sent, acked, done       time.Time
	id                           string
	env                          envelope
	submitted, started, finished time.Time
	polls                        int
	resultRTT                    time.Duration
	res                          *wireResult
	refused, skipped             bool
	err                          error
	mismatch                     string
	gap                          float64
}

// envelope is the saimserve job status body.
type envelope struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
	Error       string `json:"error"`
}

// wireResult is the saimserve result body.
type wireResult struct {
	Feasible   bool     `json:"feasible"`
	Cost       *float64 `json:"cost"`
	Assignment []int    `json:"assignment"`
	Stopped    string   `json:"stopped"`
	Error      string   `json:"error"`
}

// latency is the request's end-to-end time: a fresh job is complete at its
// envelope's finished_at plus one result fetch, a repeat when its result
// is in hand.
func (r *request) latency() time.Duration {
	if r.hit {
		return r.done.Sub(r.due)
	}
	return r.finished.Add(r.resultRTT).Sub(r.due)
}

// stamp parses the envelope's lifecycle timestamps.
func (r *request) stamp() error {
	for _, f := range []struct {
		s   string
		dst *time.Time
	}{{r.env.SubmittedAt, &r.submitted}, {r.env.StartedAt, &r.started}, {r.env.FinishedAt, &r.finished}} {
		t, err := time.Parse(time.RFC3339Nano, f.s)
		if err != nil {
			return fmt.Errorf("job %s: envelope timestamp %q: %w", r.id, f.s, err)
		}
		*f.dst = t
	}
	return nil
}

// mintNode returns the node id a job id embeds.
func mintNode(id string) string {
	parts := strings.Split(id, "-")
	if len(parts) != 3 {
		return ""
	}
	return parts[1]
}

// recent keeps the last completed fixed-budget fresh jobs of each minting
// node and kind, the pool repeats draw from.
type recent struct {
	mu   sync.Mutex
	jobs map[recentKey][]*request // guarded by mu
}

type recentKey struct{ node, kind string }

func (d *recent) add(r *request) {
	k := recentKey{mintNode(r.id), r.job.Kind}
	d.mu.Lock()
	defer d.mu.Unlock()
	l := append(d.jobs[k], r)
	if len(l) > recentKeep {
		l = l[len(l)-recentKeep:]
	}
	d.jobs[k] = l
}

// pick returns a completed fresh job of the kind minted by a node other
// than self.
func (d *recent) pick(self, kind string, x uint64) *request {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, node := range nodeIDs {
		if l := d.jobs[recentKey{node, kind}]; node != self && len(l) > 0 {
			return l[x%uint64(len(l))]
		}
	}
	return nil
}

// loadgen drives open-loop phases: two senders, one per node, each owning
// that node's connection.
type loadgen struct {
	client      *http.Client
	urls        []string
	recent      *recent
	sampleStats bool
	samples     [][]statSample // sender i alone appends to samples[i]
}

// statSample is one /statusz reading (traced runs).
type statSample struct {
	busy, workers       int
	submitted, walBytes int64
}

const (
	evSubmit = iota
	evResult
	evPoll
	evStats
)

type event struct {
	at   time.Time
	kind int
	req  *request
}

// eventQueue is a sender's events, earliest first (container/heap).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].kind < q[j].kind
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// run sends reqs on their schedule from start and returns when every
// request has finished, failed or timed out.
func (g *loadgen) run(start time.Time, reqs []*request) {
	var wg sync.WaitGroup
	for i := range g.urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.send(i, start, reqs)
		}()
	}
	wg.Wait()
}

// send is sender i. It works through node i's events in time order:
// submissions at their due times whatever the replies, lazy status polls,
// one result fetch per job, and in traced runs /statusz samples.
func (g *loadgen) send(i int, start time.Time, reqs []*request) {
	q := &eventQueue{}
	last := start
	for _, r := range reqs {
		if r.node != i {
			continue
		}
		r.due = start.Add(r.offset)
		if r.due.After(last) {
			last = r.due
		}
		heap.Push(q, event{at: r.due, kind: evSubmit, req: r})
	}
	if g.sampleStats {
		for t := start; !t.After(last); t = t.Add(statsEvery) {
			heap.Push(q, event{at: t, kind: evStats})
		}
	}
	for q.Len() > 0 {
		if d := time.Until((*q)[0].at); d > 0 {
			time.Sleep(d)
		}
		ev := heap.Pop(q).(event)
		switch ev.kind {
		case evSubmit:
			g.submit(i, ev.req, q)
		case evPoll:
			g.poll(i, ev.req, q)
		case evResult:
			g.fetch(i, ev.req)
		case evStats:
			g.sample(i)
		}
	}
}

func (g *loadgen) submit(i int, r *request, q *eventQueue) {
	if r.hit {
		if r.orig = g.recent.pick(nodeIDs[i], r.job.Kind, r.pick); r.orig == nil {
			r.skipped = true
			return
		}
		r.body = r.orig.body
	}
	r.sent = time.Now()
	status, body, err := g.do(http.MethodPost, g.urls[i]+"/v1/jobs", r.body)
	r.acked = time.Now()
	switch {
	case err != nil:
		r.err = fmt.Errorf("submit: %w", err)
		return
	case status == http.StatusServiceUnavailable:
		r.refused = true
		return
	case status != http.StatusAccepted:
		r.err = fmt.Errorf("submit: HTTP %d: %s", status, bytes.TrimSpace(body))
		return
	}
	if err := json.Unmarshal(body, &r.env); err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return
	}
	r.id = r.env.ID
	if r.hit {
		if r.id != r.orig.id || r.env.State != "done" {
			r.mismatch = fmt.Sprintf("repeat of %s was served as %s (%s), not from the dedup cache", r.orig.id, r.id, r.env.State)
			return
		}
		heap.Push(q, event{at: r.acked, kind: evResult, req: r})
		return
	}
	g.observe(r, q, r.acked, firstPoll)
}

// observe schedules what follows a status envelope: the result fetch once
// the job is done, otherwise another lazy poll.
func (g *loadgen) observe(r *request, q *eventQueue, now time.Time, wait time.Duration) {
	switch r.env.State {
	case "done":
		if err := r.stamp(); err != nil {
			r.err = err
			return
		}
		heap.Push(q, event{at: now, kind: evResult, req: r})
	case "failed", "cancelled":
		r.err = fmt.Errorf("job %s %s: %s", r.id, r.env.State, r.env.Error)
	default:
		if now.Sub(r.due) > jobTimeout {
			r.err = fmt.Errorf("job %s not done %v after its due time", r.id, jobTimeout)
			return
		}
		heap.Push(q, event{at: now.Add(wait), kind: evPoll, req: r})
	}
}

func (g *loadgen) poll(i int, r *request, q *eventQueue) {
	r.polls++
	status, body, err := g.do(http.MethodGet, g.urls[i]+"/v1/jobs/"+r.id, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &r.env)
	}
	if err != nil {
		r.err = fmt.Errorf("status of %s: %w", r.id, err)
		return
	}
	g.observe(r, q, time.Now(), repoll)
}

func (g *loadgen) fetch(i int, r *request) {
	t0 := time.Now()
	status, body, err := g.do(http.MethodGet, g.urls[i]+"/v1/jobs/"+r.id+"/result", nil)
	r.done = time.Now()
	r.resultRTT = r.done.Sub(t0)
	var res wireResult
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &res)
	}
	if err == nil && (res.Error != "" || res.Stopped == "") {
		err = fmt.Errorf("no result: %s", res.Error)
	}
	if err != nil {
		r.err = fmt.Errorf("result of %s: %w", r.id, err)
		return
	}
	r.res = &res
	if !r.hit && !r.job.Target {
		g.recent.add(r)
	}
}

func (g *loadgen) sample(i int) {
	var st struct {
		Workers   int   `json:"workers"`
		Busy      int   `json:"busy"`
		Submitted int64 `json:"submitted"`
		WALBytes  int64 `json:"wal_bytes"`
	}
	status, body, err := g.do(http.MethodGet, g.urls[i]+"/statusz", nil)
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return
	}
	g.samples[i] = append(g.samples[i], statSample{st.Busy, st.Workers, st.Submitted, st.WALBytes})
}

func (g *loadgen) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters are the /statusz and /v1/cluster counters the fixed-rate
// phase's per-layer metrics difference, summed over the nodes.
type counters struct {
	Submitted   int64 `json:"submitted"`
	DedupHits   int64 `json:"dedup_hits"`
	WALAppended int64 `json:"wal_appended"`
	WALSynced   int64 `json:"wal_synced"`
	Proxied     int64 `json:"proxied"`
	Fallbacks   int64 `json:"fallbacks"`
	Relays      int64 `json:"relays"`
}

func snapshot(client *http.Client, c *cluster) (counters, error) {
	var sum counters
	for _, n := range c.nodes {
		var st, cl counters
		if err := getJSON(client, n.url+"/statusz", &st); err != nil {
			return sum, err
		}
		if err := getJSON(client, n.url+"/v1/cluster", &cl); err != nil {
			return sum, err
		}
		sum.Submitted += st.Submitted
		sum.DedupHits += st.DedupHits
		sum.WALAppended += st.WALAppended
		sum.WALSynced += st.WALSynced
		sum.Proxied += cl.Proxied
		sum.Fallbacks += cl.Fallbacks
		sum.Relays += cl.Relays
	}
	return sum, nil
}

func (a counters) sub(b counters) counters {
	return counters{a.Submitted - b.Submitted, a.DedupHits - b.DedupHits, a.WALAppended - b.WALAppended,
		a.WALSynced - b.WALSynced, a.Proxied - b.Proxied, a.Fallbacks - b.Fallbacks, a.Relays - b.Relays}
}

// verify re-evaluates every fresh result through saim.Model.Evaluate on the
// model decoded from its own request body, scores it against the pool's
// pinned reference, and checks every repeat against the result of the job
// it repeats. A target job whose result misses its target fails. Bodies of
// one pool model carry the same model bytes, so each is decoded once.
func (b *bench) verify(sp *servePlan, reqs []*request) error {
	type poolModel struct {
		kind  string
		index int
	}
	compiled := map[poolModel]*saim.Model{}
	for _, r := range reqs {
		if r.res == nil || r.mismatch != "" {
			continue
		}
		if r.hit {
			if !sameResult(r.res, r.orig.res) {
				r.mismatch = fmt.Sprintf("repeat of %s returned a result other than the original's", r.orig.id)
			}
			continue
		}
		if !r.res.Feasible {
			if r.job.Target {
				r.err = fmt.Errorf("job %s: no feasible result, target %v missed", r.id, r.target)
			}
			continue
		}
		key := poolModel{r.job.Kind, r.job.Index}
		m, ok := compiled[key]
		if !ok {
			var err error
			if m, err = decodeBody(r.body); err != nil {
				return fmt.Errorf("decode request body: %w", err)
			}
			compiled[key] = m
		}
		cost, feasible, err := m.Evaluate(r.res.Assignment)
		if err != nil || !feasible || r.res.Cost == nil || math.Abs(cost-*r.res.Cost) > 1e-6*(1+math.Abs(cost)) {
			r.mismatch = fmt.Sprintf("job %s: reported result re-evaluates to cost %v (feasible %v, error %v)", r.id, cost, feasible, err)
			continue
		}
		// Only the QKP jobs are scored: their references come from exact
		// branch and bound and long 64-lane runs far above a job's budget.
		// A max-cut reference is only the best of a long run, which the
		// jobs' own sampling can beat.
		ref := sp.pools[r.job.Kind][r.job.Index]
		if r.job.Kind != "qkp" {
			continue
		}
		if cost < ref.Cost-1e-6*(1+math.Abs(ref.Cost)) {
			r.mismatch = fmt.Sprintf("job %s: cost %v beats the pinned reference %v of %s; re-pin it (saimprobe --pin)", r.id, cost, ref.Cost, ref.Name)
			continue
		}
		if r.job.Target && cost > r.target {
			r.err = fmt.Errorf("job %s: cost %v missed the target %v", r.id, cost, r.target)
		}
		r.gap = 100 * (cost - ref.Cost) / math.Abs(ref.Cost)
	}
	return nil
}

func decodeBody(body []byte) (*saim.Model, error) {
	var sub struct {
		Model json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return nil, err
	}
	m := model.New()
	if err := json.Unmarshal(sub.Model, m); err != nil {
		return nil, err
	}
	return m.Compile()
}

func sameResult(a, b *wireResult) bool {
	if a.Feasible != b.Feasible || (a.Cost == nil) != (b.Cost == nil) || (a.Cost != nil && *a.Cost != *b.Cost) ||
		len(a.Assignment) != len(b.Assignment) {
		return false
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			return false
		}
	}
	return true
}

// account turns the fixed-rate phase into the run's counts, end-to-end
// metrics, per-layer metrics and, when traced, spans.
func (b *bench) account(out *outcome, reqs []*request, d counters, phase time.Duration, samples [][]statSample, rec *work.Recorder) {
	var lat, tttLat, hitLat, solve, queue, local, forwarded, lag, fetch, gaps []float64
	polls, byID, refused := 0, 0, 0
	for k, r := range reqs {
		if r.skipped {
			continue
		}
		lag = append(lag, ms(r.sent.Sub(r.due)))
		if r.refused {
			refused++
		}
		if !b.settle(out, r) {
			continue
		}
		requestSpans(rec, fmt.Sprintf("request-%d", k), r)
		byID += r.polls + 1
		fetch = append(fetch, ms(r.resultRTT))
		if r.hit {
			hitLat = append(hitLat, ms(r.latency()))
			continue
		}
		polls += r.polls
		queue = append(queue, ms(r.started.Sub(r.submitted)))
		if rtt := ms(r.acked.Sub(r.sent)); mintNode(r.id) == nodeIDs[r.node] {
			local = append(local, rtt)
		} else {
			forwarded = append(forwarded, rtt)
		}
		if r.job.Target {
			tttLat = append(tttLat, ms(r.latency()))
			continue
		}
		lat = append(lat, ms(r.latency()))
		solve = append(solve, ms(r.finished.Sub(r.started)))
		if r.job.Kind == "qkp" && r.res.Feasible {
			gaps = append(gaps, r.gap)
		}
	}
	out.e2e["solve_s"] = work.Median(solve) / 1000
	out.e2e["time_to_target_s"] = work.Median(tttLat) / 1000
	out.e2e["gap_pct"] = work.Mean(gaps)
	out.e2e["latency_p50_ms"] = work.Median(lat)
	out.e2e["latency_p90_ms"] = work.Quantile(lat, 0.9)
	out.e2e["hit_latency_p50_ms"] = work.Median(hitLat)
	fmt.Fprintf(b.log, "saimbench: fixed-rate latency of %d fresh jobs: p50 %.2f, p90 %.2f, p99 %.2f ms; %d repeats, %d target jobs\n",
		len(lat), work.Median(lat), work.Quantile(lat, 0.9), work.Quantile(lat, 0.99), len(hitLat), len(tttLat))

	l := out.layer
	l["service.queue_wait_p50_ms"] = work.Median(queue)
	l["service.queue_wait_p99_ms"] = work.Quantile(queue, 0.99)
	l["service.solve_p50_ms"] = work.Median(solve)
	l["service.busy_pct"], l["wal.bytes_per_job"] = fromSamples(samples)
	l["service.dedup_hit_pct"] = pct(d.DedupHits, d.Submitted+d.DedupHits)
	l["wal.appends_per_job"] = float64(d.WALAppended) / math.Max(1, float64(d.Submitted))
	l["wal.syncs_per_s"] = float64(d.WALSynced) / phase.Seconds()
	l["saimserve.submit_rtt_p50_ms"] = work.Median(append(append([]float64(nil), local...), forwarded...))
	l["saimserve.result_rtt_p50_ms"] = work.Median(fetch)
	l["saimserve.polls_per_job"] = float64(polls) / math.Max(1, float64(len(lat)+len(tttLat)))
	l["cluster.forwarded_pct"] = pct(d.Proxied-d.Relays, int64(out.attempted))
	l["cluster.relayed_pct"] = pct(d.Relays, int64(byID))
	l["cluster.fallbacks"] = float64(d.Fallbacks)
	l["cluster.hop_p50_ms"] = work.Median(forwarded) - work.Median(local)
	l["gen.lag_p99_ms"] = work.Quantile(lag, 0.99)
	l["gen.sent.fixed"] = float64(out.attempted)
	l["gen.ok.fixed"] = float64(out.attempted - out.failed)
	l["gen.failed.fixed"] = float64(out.failed)
	l["gen.refused.fixed"] = float64(refused)
}

// settle counts a request as one attempted operation and reports whether it
// ended in a verified result. A wrong output, a refusal, an error or a
// missing result counts as failed.
func (b *bench) settle(out *outcome, r *request) bool {
	out.attempted++
	switch {
	case r.mismatch != "":
		out.mismatch("%s", r.mismatch)
	case r.refused:
		out.fail(b.log, "submission refused (503)")
	case r.err != nil:
		out.fail(b.log, "%v", r.err)
	case r.res == nil:
		out.fail(b.log, "job %s: no result", r.id)
	default:
		return true
	}
	return false
}

// fromSamples reads the traced run's /statusz samples: mean worker
// utilization (Busy ÷ Workers, %) and journal growth per accepted job over
// the sample intervals no compaction shrank.
func fromSamples(samples [][]statSample) (busyPct, walPerJob float64) {
	var busy []float64
	var grew, jobs int64
	for _, s := range samples {
		for k, x := range s {
			if x.workers > 0 {
				busy = append(busy, 100*float64(x.busy)/float64(x.workers))
			}
			if k == 0 {
				continue
			}
			if db, dj := x.walBytes-s[k-1].walBytes, x.submitted-s[k-1].submitted; db >= 0 && dj > 0 {
				grew, jobs = grew+db, jobs+dj
			}
		}
	}
	if jobs > 0 {
		walPerJob = float64(grew) / float64(jobs)
	}
	return work.Mean(busy), walPerJob
}

// requestSpans records a fixed-rate request: the root from its due time to
// its result in hand, and beneath it the sender's lag, the submit round
// trip (codec, dedup, WAL and any cluster hop inside), the job's queue
// wait and solve from its envelope, and the result fetch.
func requestSpans(rec *work.Recorder, group string, r *request) {
	if rec == nil {
		return
	}
	end := r.due.Add(r.latency())
	root := rec.Add(-1, group, "gen.request", r.due, end)
	rec.Add(root, group, "gen.lag", r.due, r.sent)
	rec.Add(root, group, "saimserve.submit", r.sent, r.acked)
	if r.hit {
		rec.Add(root, group, "saimserve.result", r.done.Add(-r.resultRTT), r.done)
		return
	}
	rec.Add(root, group, "service.queue", r.submitted, r.started)
	rec.Add(root, group, "service.solve", r.started, r.finished)
	rec.Add(root, group, "saimserve.result", r.finished, end)
}

func pct(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// ladder measures max_rate_jobs_per_s: a binary search over fixed rates
// LadderStep apart for the highest whose fresh-job p90 latency meets the
// limit with no refusal, no failure and no growing backlog. A rate that
// fails is probed once more before the search moves below it, so a burst
// of load on a shared host cannot sink the search. Each probe sends fresh
// jobs at its rate for an equal share of the ladder's part of --seconds,
// sized for a search that retries ladderRetries rates (one that retries
// more runs longer): long enough to walk the job pools several times, so a
// probe judges the rate, not which pool models it drew.
func (b *bench) ladder(g *loadgen, sp *servePlan, out *outcome) (float64, error) {
	sc := b.scale
	rates := make([]float64, sc.LadderRungs)
	for k := range rates {
		rates[k] = sc.LadderLo * math.Pow(work.LadderStep, float64(k))
	}
	probeFor := (1 - sc.FixedShare) * b.measure.Seconds() / float64(bits.Len(uint(len(rates)))+ladderRetries)
	lo, hi := -1, len(rates) // highest passing rung, lowest failing rung
	for probe := uint64(1); hi-lo > 1; {
		mid := (lo + hi) / 2
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			var err error
			if pass, err = b.ladderStep(g, sp, probe, rates[mid], probeFor, out); err != nil {
				return 0, err
			}
			probe++
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	switch lo {
	case -1:
		fmt.Fprintf(b.log, "saimbench: even the lowest ladder rate, %.1f jobs/s, missed the limit\n", rates[0])
		return rates[0] / work.LadderStep, nil
	case len(rates) - 1:
		fmt.Fprintf(b.log, "saimbench: the highest ladder rate, %.1f jobs/s, met the limit; the ladder caps max_rate_jobs_per_s\n", rates[lo])
	}
	return rates[lo], nil
}

// ladderStep sends fresh jobs at one rate for the given seconds (at least
// ten jobs) and judges the rate.
func (b *bench) ladderStep(g *loadgen, sp *servePlan, stream uint64, rate, seconds float64, out *outcome) (bool, error) {
	sc := b.scale
	reqs := sp.fresh(b, stream, max(10, int(rate*seconds)), rate)
	g.run(time.Now().Add(50*time.Millisecond), reqs)
	if err := b.verify(sp, reqs); err != nil {
		return false, err
	}
	var lat []float64
	refused, failed := 0, 0
	for _, r := range reqs {
		switch {
		case r.mismatch != "":
			out.mismatch("%s", r.mismatch)
			failed++
		case r.refused:
			refused++
		case r.err != nil || r.res == nil:
			failed++
		default:
			lat = append(lat, ms(r.latency()))
		}
	}
	out.layer["gen.sent.ladder"] += float64(len(reqs))
	out.layer["gen.ok.ladder"] += float64(len(lat))
	out.layer["gen.failed.ladder"] += float64(failed)
	out.layer["gen.refused.ladder"] += float64(refused)
	p90 := work.Quantile(lat, 0.9)
	q := len(lat) / 4
	growing := q > 0 && work.Median(lat[len(lat)-q:]) > math.Max(2*work.Median(lat[:q]), sc.LimitP90MS/2)
	pass := refused == 0 && failed == 0 && p90 <= sc.LimitP90MS && !growing
	fmt.Fprintf(b.log, "saimbench: ladder %.1f jobs/s: p90 %.1f ms, %d refused, %d failed, growing backlog %v: pass %v\n",
		rate, p90, refused, failed, growing, pass)
	return pass, nil
}
