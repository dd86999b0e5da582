// Package service is the concurrent solve layer of the saim library: a
// job manager that runs declarative models from package model on the
// registered solver backends behind a bounded worker pool.
//
// The manager gives a server (cmd/saimserve) everything a multi-tenant
// deployment needs:
//
//   - Backpressure: submissions beyond the queue depth fail fast with
//     ErrQueueFull instead of piling up unboundedly.
//   - Per-job deadlines and cancellation: every job solves under its own
//     context; Request.TimeLimit becomes a WithTimeLimit deadline the
//     backends enforce at cancellation cadence, and Job.Cancel frees the
//     worker within one annealing run.
//   - Deduplication: submissions are keyed by the model's canonical
//     fingerprint plus the options fingerprint; an identical submission
//     attaches to the in-flight job or is served from the result cache,
//     so a thundering herd of equal requests costs one solve.
//   - Serialized progress fan-out: each job streams ordered Progress
//     snapshots to any number of subscribers, and an optional fleet
//     monitor merges every worker's stream through the exported
//     core.ProgressAggregator into one serialized, monotone feed.
//   - Graceful drain: Close stops intake, finishes queued and running
//     work, and force-cancels (best-so-far) only when its context
//     expires.
//   - Durability (Open with Config.Dir): every accepted job is journaled
//     to a segmented write-ahead log (internal/wal) before Submit
//     returns, best-so-far assignments are checkpointed as the solve
//     improves, and a restart on the same directory re-queues every
//     unfinished job warm-started from its last checkpoint — with dedup
//     keys and job ids surviving the crash. Config.Fsync picks the
//     loss-window/throughput trade.
//   - Failure containment: a panicking backend fails only its own job
//     (ErrSolverPanic, with the stack preserved), is retried with
//     backoff up to Config.MaxRetries times, and then has its dedup key
//     quarantined so identical submissions fail fast (ErrQuarantined).
//     Queued jobs whose deadline fully elapsed before a worker freed up
//     fail with ErrDeadlineExpired without ever invoking a solver.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/faultkit"
	"github.com/ising-machines/saim/internal/wal"
	"github.com/ising-machines/saim/model"
)

// ErrQueueFull is returned by Submit when the backpressured queue is at
// capacity. Callers should retry later or shed load upstream.
var ErrQueueFull = errors.New("service: queue full")

// ErrClosed is returned by Submit after Close started draining.
var ErrClosed = errors.New("service: manager closed")

// ErrSolverPanic wraps the recovered panic value (and stack) of a
// backend that panicked mid-solve. Only the panicking job fails; sibling
// jobs on other workers are unaffected.
var ErrSolverPanic = errors.New("solver panicked")

// ErrQuarantined marks a job that exhausted MaxRetries panicking, and
// every later submission sharing its dedup key: a poison model must not
// crash-loop a worker.
var ErrQuarantined = errors.New("service: job quarantined")

// ErrDeadlineExpired marks a queued job whose whole TimeLimit elapsed
// before any worker could pick it up; it fails fast without occupying a
// worker.
var ErrDeadlineExpired = errors.New("service: time limit expired while queued")

// MaxCompileBytes is the dense compile budget of one submission. Compile
// holds about 24·N² bytes for a model on N columns (Model.Columns: the
// declared variables plus the slack bits of its ≤ and ≥ constraints), so
// 1 GiB admits up to 6,688 columns. Submit refuses a model over it with a
// *ModelTooLargeError before fingerprinting or queueing it.
const MaxCompileBytes = 1 << 30

// ModelTooLargeError is Submit's refusal of a model whose dense compile
// would exceed MaxCompileBytes.
type ModelTooLargeError struct {
	// Columns is the model's declared variables plus slack columns.
	Columns int
}

func (e *ModelTooLargeError) Error() string {
	return fmt.Sprintf("service: model compiles onto %d columns, about %.3g bytes dense, over the %d-byte budget",
		e.Columns, compileBytes(e.Columns), MaxCompileBytes)
}

// compileBytes is the dense footprint of a compile onto n columns, in
// floating point so that no column count overflows it.
func compileBytes(n int) float64 { return 24 * float64(n) * float64(n) }

// Config sizes a Manager. Zero values take the documented defaults.
type Config struct {
	// Workers is the solve concurrency (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheSize bounds the completed-result cache, LRU-evicted (default
	// 256; negative disables caching entirely).
	CacheSize int
	// DefaultTimeLimit is applied to requests that carry no TimeLimit of
	// their own (zero = unlimited). It protects a deployment from
	// unbounded submissions.
	DefaultTimeLimit time.Duration
	// Monitor, when non-nil, receives the fleet-wide progress stream:
	// every worker's snapshots merged through core.ProgressAggregator
	// into serialized, monotone totals (samples, sweeps, best cost across
	// the fleet). Keep it cheap; it runs under the aggregator's lock.
	Monitor func(saim.Progress)

	// Dir, when non-empty, selects durable mode: every accepted job is
	// journaled to a write-ahead log under Dir, and Open replays the log
	// so jobs survive a crash or kill -9. Managers with a Dir must be
	// created with Open (New panics to catch the silent-durability-loss
	// mistake).
	Dir string
	// Fsync selects the WAL fsync policy in durable mode: SyncInterval
	// (default; bounded loss window), SyncAlways (no acknowledged job is
	// ever lost), or SyncOff (OS writeback only).
	Fsync SyncPolicy
	// MaxRetries bounds re-solve attempts after a solver panic before
	// the job fails for good and its dedup key is quarantined (default
	// 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubled per
	// attempt with deterministic jitter (default 50ms).
	RetryBackoff time.Duration
	// CheckpointInterval throttles durable-mode checkpoint records: the
	// first new-best assignment of a job is journaled immediately, then
	// at most one per interval (default 1s; negative disables
	// checkpointing — recovered jobs restart from scratch).
	CheckpointInterval time.Duration

	// NodeID, when non-empty, scopes job ids to this node
	// ("job-<node>-000001" instead of "job-000001") so ids minted by
	// different cluster nodes never collide and any node can route a
	// status request to the minting node by parsing the id.
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Second
	}
	return c
}

// Request is one solve submission.
type Request struct {
	// Model is the declarative model to solve (required). The manager
	// fingerprints it for deduplication; mutating it after Submit is a
	// data race.
	Model *model.Model
	// Solver names the registered backend (required), e.g. "saim",
	// "decomp", "race".
	Solver string
	// Options configure the solve. WithProgress must not be among them
	// (the manager owns the progress stream); use Job.Subscribe instead.
	Options []saim.Option
	// TimeLimit caps the solve's wall-clock time, folded into the
	// options as WithTimeLimit; zero falls back to the manager's
	// DefaultTimeLimit, and an explicit WithTimeLimit among Options
	// overrides both. The clock starts when a worker picks the job up,
	// not at submission.
	TimeLimit time.Duration
	// NoDedup forces a fresh solve even when an identical submission is
	// in flight or cached — for deliberately re-sampling a stochastic
	// backend.
	NoDedup bool
	// WireOptions, when non-nil, configure the solve in serializable
	// wire form. Submit lowers them ahead of Options (so a functional
	// option still overrides its wire counterpart — last write wins) and
	// durable mode journals them, making the job fully reconstructible
	// after a crash. Functional Options cannot be journaled; a recovered
	// job re-runs with its WireOptions only.
	WireOptions *SolveOptions
}

// Manager owns the worker pool, the queue, the job index, and the result
// cache. Create one with New; all methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	base  context.Context
	abort context.CancelFunc
	queue chan *Job
	wg    sync.WaitGroup

	agg *core.ProgressAggregator

	wal     *wal.Log // nil outside durable mode
	walStop sync.Once

	ctr counters

	mu           sync.Mutex
	draining     bool                // guarded by mu
	nextID       int                 // guarded by mu
	jobs         map[string]*Job     // guarded by mu
	inflight     map[string]*Job     // queued or running, by dedup key; guarded by mu
	cache        *lruCache           // finished, by dedup key; guarded by mu
	finished     []string            // finished job ids, oldest first, for index pruning; guarded by mu
	quarantined  map[string]struct{} // guarded by mu
	quarOrder    []string            // quarantined keys, oldest first, for bounding; guarded by mu
	sinceCompact int                 // finished durable jobs since the last compaction; guarded by mu
}

// New returns a started in-memory Manager. A Config carrying a Dir must
// go through Open instead — New panics rather than silently dropping the
// durability the configuration asked for.
func New(cfg Config) *Manager {
	if cfg.Dir != "" {
		panic("service: Config.Dir set; durable managers must be created with Open")
	}
	return newManager(cfg.withDefaults(), nil, 0)
}

// newManager starts the worker pool. extraQueue widens the queue beyond
// QueueDepth so Open can re-enqueue every recovered job even when they
// outnumber the configured depth.
func newManager(cfg Config, wlog *wal.Log, extraQueue int) *Manager {
	base, abort := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		base:        base,
		abort:       abort,
		queue:       make(chan *Job, cfg.QueueDepth+extraQueue),
		jobs:        map[string]*Job{},
		inflight:    map[string]*Job{},
		cache:       newLRUCache(cfg.CacheSize),
		wal:         wlog,
		quarantined: map[string]struct{}{},
	}
	if cfg.Monitor != nil {
		m.agg = core.NewProgressAggregator(func(p core.ProgressInfo) {
			out := saim.Progress{
				Solver:     "service",
				Iteration:  p.Iteration,
				Iterations: p.Total,
				BestCost:   p.BestCost,
				LambdaNorm: p.LambdaNorm,
				Sweeps:     p.Sweeps,
			}
			if p.Samples > 0 {
				out.FeasibleRatio = 100 * float64(p.FeasibleCount) / float64(p.Samples)
			}
			cfg.Monitor(out)
		}, cfg.Workers, 0)
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker(w)
	}
	return m
}

// jobID formats the id for job number n, scoped to the node in cluster
// mode so ids minted by different nodes never collide.
func (m *Manager) jobID(n int) string {
	if m.cfg.NodeID != "" {
		return fmt.Sprintf("job-%s-%06d", m.cfg.NodeID, n)
	}
	return fmt.Sprintf("job-%06d", n)
}

// dedupKey combines the canonical model fingerprint, the backend name,
// and the options fingerprint: everything that determines a solve's
// result (progress callbacks excluded by construction).
func dedupKey(req Request, limit time.Duration) (string, error) {
	mfp, err := req.Model.Fingerprint()
	if err != nil {
		return "", err
	}
	// The limit is prepended, mirroring runJob: an explicit WithTimeLimit
	// among the request's own options overrides it (last write wins).
	opts := req.Options
	if limit > 0 {
		opts = append([]saim.Option{saim.WithTimeLimit(limit)}, opts...)
	}
	return req.Solver + "\x00" + mfp + "\x00" + saim.OptionsFingerprint(opts...), nil
}

// Submit validates, deduplicates, and enqueues a request. The returned
// job may be shared with earlier identical submissions (its Status.Hits
// counts them) or already finished (served from cache). ErrQueueFull
// reports backpressure; ErrClosed a draining manager; ErrQuarantined a
// request whose dedup key was poisoned by repeated solver panics; a
// *ModelTooLargeError a model over MaxCompileBytes.
func (m *Manager) Submit(req Request) (*Job, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("service: request has no model")
	}
	if _, err := saim.Get(req.Solver); err != nil {
		return nil, err
	}
	if err := req.Model.Err(); err != nil {
		return nil, err
	}
	if n := req.Model.Columns(); compileBytes(n) > MaxCompileBytes {
		return nil, &ModelTooLargeError{Columns: n}
	}
	// A request whose configuration is entirely wire-encodable (its only
	// options are the WireOptions lowered below) can be re-created on
	// another process; Steal hands out only such jobs. Captured before
	// lowering mutates req.Options.
	wireOnly := len(req.Options) == 0
	if req.WireOptions != nil {
		// Lower wire options ahead of the functional ones so an explicit
		// Option still wins (last write wins), and let an explicit
		// TimeLimit win over the wire form's.
		wopts, wlimit, err := req.WireOptions.Options()
		if err != nil {
			return nil, err
		}
		req.Options = append(wopts, req.Options...)
		if req.TimeLimit <= 0 {
			req.TimeLimit = wlimit
		}
	}
	limit := req.TimeLimit
	if limit <= 0 {
		limit = m.cfg.DefaultTimeLimit
	}
	// NoDedup jobs never enter the dedup index, so skip the O(model)
	// fingerprinting entirely; their key stays empty (detach and prune
	// guard by identity, so an empty key can never alias another job).
	var key string
	if !req.NoDedup {
		var err error
		key, err = dedupKey(req, limit)
		if err != nil {
			return nil, err
		}
	}

	j, existing, err := m.admit(req, key, wireOnly, limit)
	if err != nil {
		return nil, err
	}
	if existing {
		return j, nil
	}
	// The journal append runs OUTSIDE m.mu: under Fsync=SyncAlways every
	// Append fsyncs, and an fsync must never gate Job/Stats/Cancel and
	// every other m.mu operation (lockguard enforces this). The job is
	// already queued and indexed; on journal failure it is retracted
	// before a worker can run it, and since its submitted record never
	// reached the log a crash cannot resurrect it. A concurrent
	// identical submission in the retraction window dedups onto the
	// doomed job and observes it cancelled — the same journal failure it
	// would have hit itself.
	if m.wal != nil {
		if err := m.journalSubmitted(j, limit); err != nil {
			m.retractSubmit(j)
			return nil, fmt.Errorf("service: journal submit: %w", err)
		}
	}
	m.ctr.submitted.Add(1)
	return j, nil
}

// admit runs Submit's critical section: dedup lookup, job construction,
// enqueue, and registration, all under m.mu and nothing slower. existing
// reports a dedup hit. Journaling deliberately happens after this
// returns — see Submit.
func (m *Manager) admit(req Request, key string, wireOnly bool, limit time.Duration) (j *Job, existing bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrClosed
	}
	if !req.NoDedup {
		if _, bad := m.quarantined[key]; bad {
			return nil, false, ErrQuarantined
		}
		if j, ok := m.inflight[key]; ok {
			j.lock()
			j.hits++
			j.unlock()
			m.ctr.dedupHits.Add(1)
			return j, true, nil
		}
		if j, ok := m.cache.get(key); ok {
			j.lock()
			j.hits++
			j.unlock()
			m.ctr.dedupHits.Add(1)
			return j, true, nil
		}
	}

	m.nextID++
	ctx, cancel := context.WithCancel(m.base)
	j = &Job{
		id:        m.jobID(m.nextID),
		key:       key,
		mgr:       m,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		hits:      1,
		wireOnly:  wireOnly,
		subs:      map[int]chan saim.Progress{},
		submitted: time.Now(),
	}
	j.req.TimeLimit = limit
	select {
	case m.queue <- j:
	default:
		cancel()
		return nil, false, ErrQueueFull
	}
	m.jobs[j.id] = j
	if !req.NoDedup {
		m.inflight[key] = j
	}
	return j, false, nil
}

// retractSubmit undoes an admission whose journal append failed: the job
// leaves the index immediately, and the worker that dequeues it sees the
// cancellation and finalizes it without running. A worker can also have
// dequeued and finished it before the append failed, so the job leaves
// the result cache too; the worker caches only jobs still indexed, so
// either order keeps a retracted job out of dedup.
func (m *Manager) retractSubmit(j *Job) {
	j.lock()
	j.cancelled = true
	j.unlock()
	j.cancel()
	m.mu.Lock()
	delete(m.jobs, j.id)
	if cur, ok := m.inflight[j.key]; ok && cur == j {
		delete(m.inflight, j.key)
	}
	m.cache.drop(j.key, j)
	m.mu.Unlock()
}

// Job returns a tracked job by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns a snapshot of every tracked job (bounded: finished jobs
// are pruned once the index outgrows several cache sizes).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// Cancel cancels a job by id, reporting whether the id was known.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Job(id)
	if ok {
		j.Cancel()
	}
	return ok
}

// detach removes a job from the dedup index so future identical
// submissions start fresh (used on cancel and failure).
func (m *Manager) detach(j *Job) {
	m.mu.Lock()
	if cur, ok := m.inflight[j.key]; ok && cur == j {
		delete(m.inflight, j.key)
	}
	m.cache.drop(j.key, j)
	m.mu.Unlock()
}

// Close drains the manager: no new submissions are accepted, queued and
// running jobs finish normally, and the call returns when the pool is
// idle. If ctx expires first, running solves are force-cancelled — they
// still finalize with best-so-far results — and ctx's error is returned.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		m.closeWAL()
		return nil
	case <-ctx.Done():
		m.abort()
		<-idle
		m.closeWAL()
		return ctx.Err()
	}
}

// closeWAL appends the clean-shutdown record and closes the journal.
// Called after the pool is idle, so every job's terminal record is
// already in the log.
func (m *Manager) closeWAL() {
	if m.wal == nil {
		return
	}
	m.walStop.Do(func() {
		_ = m.wal.Append(wal.Record{Kind: wal.KindShutdown})
		_ = m.wal.Close()
	})
}

// worker is one pool goroutine: it drains the queue, running each job
// under its own context.
func (m *Manager) worker(w int) {
	defer m.wg.Done()
	var totals workerTotals
	for j := range m.queue {
		m.runJob(w, j, &totals)
	}
}

// workerTotals accumulates one worker's cumulative progress across every
// job it has run, so its aggregator slot sees one monotone stream.
type workerTotals struct {
	samples  int
	feasible int
	sweeps   int64
	// High-water marks of the current job's stream. A meta-solver job
	// (race) interleaves several racers' independent cumulative streams
	// through the one job callback; taking the maximum keeps the fleet
	// totals monotone — at the cost of undercounting the losers' work
	// mid-flight, which the job's final Result sums correctly anyway.
	jobSamples  int
	jobFeasible int
	jobSweeps   int64
}

// feed converts one job-local snapshot into worker-cumulative totals.
func (t *workerTotals) feed(p saim.Progress) core.ProgressInfo {
	samples := p.Iteration + 1
	feas := int(math.Round(p.FeasibleRatio / 100 * float64(samples)))
	t.jobSamples = max(t.jobSamples, samples)
	t.jobFeasible = max(t.jobFeasible, feas)
	t.jobSweeps = max(t.jobSweeps, p.Sweeps)
	return core.ProgressInfo{
		Iteration:     t.samples + t.jobSamples - 1,
		BestCost:      p.BestCost,
		FeasibleCount: t.feasible + t.jobFeasible,
		Samples:       t.samples + t.jobSamples,
		Sweeps:        t.sweeps + t.jobSweeps,
	}
}

// commit folds the finished job's stream into the base offsets.
func (t *workerTotals) commit() {
	t.samples += t.jobSamples
	t.feasible += t.jobFeasible
	t.sweeps += t.jobSweeps
	t.jobSamples, t.jobFeasible, t.jobSweeps = 0, 0, 0
}

// runJob executes one job on worker w: cancellation and queue-expiry
// fast paths, then up to 1+MaxRetries contained solve attempts.
func (m *Manager) runJob(w int, j *Job, totals *workerTotals) {
	j.lock()
	if j.cancelled || j.ctx.Err() != nil {
		j.unlock()
		m.ctr.cancelled.Add(1)
		j.finalize(StateCancelled, nil, context.Canceled)
		m.detach(j)
		m.journalFinish(j, wal.KindCancelled, nil)
		m.noteFinished(j.id)
		return
	}
	// A job whose wall-clock budget fully elapsed while queued cannot do
	// useful work — its deadline would expire at the first cancellation
	// check — so fail it without ever occupying the worker. The solve
	// budget itself still starts at pickup (the documented TimeLimit
	// semantics); this only rejects jobs that queued past their whole
	// budget.
	if j.req.TimeLimit > 0 && time.Since(j.submitted) >= j.req.TimeLimit {
		waited := time.Since(j.submitted)
		j.unlock()
		err := fmt.Errorf("service: %w: queued %v, time limit %v", ErrDeadlineExpired,
			waited.Round(time.Millisecond), j.req.TimeLimit)
		m.ctr.expired.Add(1)
		m.ctr.failed.Add(1)
		j.finalize(StateFailed, nil, err)
		m.detach(j)
		m.journalFinish(j, wal.KindFinished, err)
		m.noteFinished(j.id)
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	warm := j.warm
	j.unlock()
	m.ctr.busy.Add(1)

	// The job-level limit is prepended so an explicit WithTimeLimit the
	// caller put among its own options still wins (options apply last
	// write wins) — the manager default must never loosen a deadline the
	// caller tightened. A recovery warm start is likewise prepended so a
	// caller's own WithInitial wins.
	var opts []saim.Option
	if j.req.TimeLimit > 0 {
		opts = append(opts, saim.WithTimeLimit(j.req.TimeLimit))
	}
	if warm != nil {
		opts = append(opts, saim.WithInitial(warm))
	}
	opts = append(opts, j.req.Options...)
	emit := j.publish
	if m.agg != nil {
		relay := m.agg.Callback(w)
		inner := emit
		emit = func(p saim.Progress) {
			inner(p)
			relay(totals.feed(p))
		}
	}
	opts = append(opts, saim.WithProgress(emit))
	if m.wal != nil && m.cfg.CheckpointInterval > 0 {
		opts = append(opts, saim.WithCheckpoint(m.checkpointFn(j)))
	}

	var sol *model.Solution
	var err error
	for attempt := 0; ; attempt++ {
		j.lock()
		j.attempts = attempt + 1
		j.unlock()
		m.journalStarted(j, attempt+1)
		sol, err = m.solveJob(j, opts)
		if err == nil || !errors.Is(err, ErrSolverPanic) {
			break
		}
		m.ctr.panics.Add(1)
		if attempt >= m.cfg.MaxRetries {
			if j.key != "" {
				m.quarantineKey(j.key)
				m.ctr.quarantined.Add(1)
			}
			err = fmt.Errorf("service: %w after %d attempts: %w", ErrQuarantined, attempt+1, err)
			break
		}
		m.ctr.retries.Add(1)
		select {
		case <-j.ctx.Done():
		case <-time.After(m.retryBackoff(j.id, attempt)):
		}
		if j.ctx.Err() != nil {
			break
		}
	}
	if m.agg != nil {
		totals.commit()
	}

	// The counters move before finalize closes the job's done channel, so
	// Stats read right after Wait already counts this job.
	m.ctr.busy.Add(-1)
	switch {
	case err != nil:
		m.ctr.failed.Add(1)
		j.finalize(StateFailed, nil, err)
		m.detach(j)
		m.journalFinish(j, wal.KindFinished, err)
	default:
		state := StateDone
		j.lock()
		wasCancelled := j.cancelled
		j.unlock()
		if wasCancelled && sol.Result().Stopped == saim.StopCancelled {
			state = StateCancelled
		}
		if state == StateDone {
			m.ctr.completed.Add(1)
		} else {
			m.ctr.cancelled.Add(1)
		}
		j.finalize(state, sol, nil)
		m.mu.Lock()
		if cur, ok := m.inflight[j.key]; ok && cur == j {
			delete(m.inflight, j.key)
		}
		if state == StateDone && !j.req.NoDedup && m.jobs[j.id] == j {
			m.cache.put(j.key, j)
		}
		m.mu.Unlock()
		if state == StateDone {
			m.journalFinish(j, wal.KindFinished, nil)
		} else {
			m.journalFinish(j, wal.KindCancelled, nil)
		}
	}
	m.noteFinished(j.id)
	m.maybeCompact()
}

// solveJob runs one contained solve attempt: a panicking backend fails
// only this job, with the panic value and stack preserved in the error.
func (m *Manager) solveJob(j *Job, opts []saim.Option) (sol *model.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			err = fmt.Errorf("service: job %s: %w: %v\n%s", j.id, ErrSolverPanic, r, debug.Stack())
		}
	}()
	if ferr := faultkit.Inject("service.solve"); ferr != nil {
		return nil, ferr
	}
	return j.req.Model.Solve(j.ctx, j.req.Solver, opts...)
}

// retryBackoff is RetryBackoff·2^attempt plus up to 50% jitter. The
// jitter is a hash of (job id, attempt) rather than ambient randomness —
// the repo's seeded-randomness discipline — which spreads a herd of
// simultaneous retries just as well.
func (m *Manager) retryBackoff(id string, attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	base := m.cfg.RetryBackoff << uint(attempt)
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(base/2+1))
	return base + jitter
}

// quarantineKey poisons a dedup key after repeated panics so identical
// submissions fail fast with ErrQuarantined instead of crash-looping a
// worker. The set is bounded FIFO.
func (m *Manager) quarantineKey(key string) {
	const maxQuarantined = 1024
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.quarantined[key]; ok {
		return
	}
	m.quarantined[key] = struct{}{}
	m.quarOrder = append(m.quarOrder, key)
	if len(m.quarOrder) > maxQuarantined {
		delete(m.quarantined, m.quarOrder[0])
		m.quarOrder = m.quarOrder[1:]
	}
}

// noteFinished records a finished job in the pruning FIFO and bounds the
// job index: once finished jobs outnumber four cache sizes (at least 64),
// the oldest are forgotten. Jobs still resident in the result cache are
// never pruned — a cache hit hands out their id, so the id must keep
// resolving (the cache holds at most CacheSize jobs, a quarter of the
// limit, so retention cannot defeat the bound). Pruned jobs' Done
// channels and results stay valid for holders of the *Job; only id
// lookup expires.
func (m *Manager) noteFinished(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	limit := 4 * m.cfg.CacheSize
	if limit < 64 {
		limit = 64
	}
	m.finished = append(m.finished, id)
	if len(m.finished) <= limit {
		return
	}
	kept := m.finished[:0]
	excess := len(m.finished) - limit
	for _, old := range m.finished {
		j, ok := m.jobs[old]
		if excess > 0 && (!ok || m.cache.byKey[j.key] != j) {
			delete(m.jobs, old)
			excess--
			continue
		}
		kept = append(kept, old)
	}
	m.finished = kept
}

// lruCache is a minimal LRU of finished jobs keyed by dedup key.
type lruCache struct {
	cap   int
	order []string // least recent first
	byKey map[string]*Job
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 0 {
		capacity = 0
	}
	return &lruCache{cap: capacity, byKey: map[string]*Job{}}
}

func (c *lruCache) get(key string) (*Job, bool) {
	j, ok := c.byKey[key]
	if ok {
		c.touch(key)
	}
	return j, ok
}

func (c *lruCache) put(key string, j *Job) {
	if c.cap == 0 {
		return
	}
	if _, ok := c.byKey[key]; ok {
		c.byKey[key] = j
		c.touch(key)
		return
	}
	c.byKey[key] = j
	c.order = append(c.order, key)
	for len(c.byKey) > c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.byKey, oldest)
	}
}

// drop removes the key when it maps to the given job (cancel/failure
// paths must not evict a fresher entry under the same key).
func (c *lruCache) drop(key string, j *Job) {
	if cur, ok := c.byKey[key]; ok && cur == j {
		delete(c.byKey, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
}

func (c *lruCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i], c.order[i+1:]...), key)
			return
		}
	}
}
