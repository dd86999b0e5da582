package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/wal"
	"github.com/ising-machines/saim/model"
)

// SyncPolicy selects when the durable-mode journal fsyncs; it aliases
// the internal wal type so every layer shares one vocabulary (the
// saim.MachineKind precedent).
type SyncPolicy = wal.SyncPolicy

// Re-exported fsync policies.
const (
	// SyncInterval (the default) fsyncs on a background timer: a crash
	// loses at most the last ~100ms of acknowledged jobs.
	SyncInterval = wal.SyncInterval
	// SyncAlways fsyncs before Submit returns: no acknowledged job is
	// ever lost.
	SyncAlways = wal.SyncAlways
	// SyncOff never fsyncs explicitly; durability rides on OS writeback.
	SyncOff = wal.SyncOff
)

// compactEvery is the minimum number of finished durable jobs between
// WAL compactions, and compactMinBytes the minimum journal size worth
// rewriting. Both must hold before a compaction runs: each one rewrites
// and fsyncs the log, so triggering on count alone would tax a stream of
// small fast jobs with a disk barrier every few dozen solves.
const (
	compactEvery    = 64
	compactMinBytes = 1 << 20
)

// submittedRec is the journaled body of a KindSubmitted record —
// everything needed to re-create the job after a crash.
type submittedRec struct {
	Solver string `json:"solver"`
	// Model is the canonical model JSON (model.MarshalJSON).
	Model json.RawMessage `json:"model"`
	// Options is the wire form of the request options. Functional
	// options cannot be journaled; a recovered job re-runs with its wire
	// options only.
	Options *SolveOptions `json:"options,omitempty"`
	// TimeLimitMS is the resolved limit (request or manager default) so
	// a changed default is not re-applied on recovery.
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	NoDedup     bool  `json:"no_dedup,omitempty"`
}

// startedRec is the journaled body of a KindStarted record.
type startedRec struct {
	Attempt int `json:"attempt"`
}

// checkpointRec is the journaled body of a KindCheckpoint record: the
// best-so-far decision assignment and its cost, the warm start a
// recovered job resumes from.
type checkpointRec struct {
	Assignment []int   `json:"assignment"`
	Cost       float64 `json:"cost"`
}

// finishedRec is the journaled body of a KindFinished record.
type finishedRec struct {
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// counters are the manager's monotonically increasing health counters,
// exposed by Stats and (through cmd/saimserve) /statusz.
type counters struct {
	submitted   atomic.Int64
	dedupHits   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	expired     atomic.Int64
	retries     atomic.Int64
	panics      atomic.Int64
	quarantined atomic.Int64
	walErrors   atomic.Int64
	busy        atomic.Int64
	stolen      atomic.Int64
	stolenDone  atomic.Int64
	requeued    atomic.Int64
}

// Stats is a point-in-time snapshot of manager health. Counters are
// cumulative since the manager (not the journal) started.
type Stats struct {
	// Workers and QueueDepth echo the configuration; Queued and Busy are
	// the current queue length and workers mid-solve (worker utilization
	// is Busy/Workers).
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	Queued     int `json:"queued"`
	Busy       int `json:"busy"`
	// Submission outcomes.
	Submitted int64 `json:"submitted"`
	DedupHits int64 `json:"dedup_hits"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Expired   int64 `json:"expired"`
	// Failure containment.
	Retries     int64 `json:"retries"`
	Panics      int64 `json:"panics"`
	Quarantined int64 `json:"quarantined"`
	// Work stealing (cluster mode). Stolen counts jobs handed to another
	// node by Steal, StolenDone those whose result came back through
	// CompleteRemote, Requeued those whose lease expired and were put
	// back on the local queue.
	Stolen     int64 `json:"stolen"`
	StolenDone int64 `json:"stolen_done"`
	Requeued   int64 `json:"requeued"`
	// Durable is true in durable mode; the WAL* fields are zero outside
	// it. WALLag is appended-but-not-fsynced records — the current loss
	// window. WALErrors counts journal writes that failed after the job
	// was already accepted (submit-time failures reject the submit).
	Durable     bool  `json:"durable"`
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	WALAppended int64 `json:"wal_appended"`
	WALSynced   int64 `json:"wal_synced"`
	WALLag      int64 `json:"wal_lag"`
	WALErrors   int64 `json:"wal_errors"`
}

// Stats returns a snapshot of manager health.
func (m *Manager) Stats() Stats {
	st := Stats{
		Workers:     m.cfg.Workers,
		QueueDepth:  m.cfg.QueueDepth,
		Queued:      len(m.queue),
		Busy:        int(m.ctr.busy.Load()),
		Submitted:   m.ctr.submitted.Load(),
		DedupHits:   m.ctr.dedupHits.Load(),
		Completed:   m.ctr.completed.Load(),
		Failed:      m.ctr.failed.Load(),
		Cancelled:   m.ctr.cancelled.Load(),
		Expired:     m.ctr.expired.Load(),
		Retries:     m.ctr.retries.Load(),
		Panics:      m.ctr.panics.Load(),
		Quarantined: m.ctr.quarantined.Load(),
		Stolen:      m.ctr.stolen.Load(),
		StolenDone:  m.ctr.stolenDone.Load(),
		Requeued:    m.ctr.requeued.Load(),
		WALErrors:   m.ctr.walErrors.Load(),
	}
	if m.wal != nil {
		ws := m.wal.Stats()
		st.Durable = true
		st.WALSegments = ws.Segments
		st.WALBytes = ws.Bytes
		st.WALAppended = ws.Appended
		st.WALSynced = ws.Synced
		st.WALLag = ws.Lag
	}
	return st
}

// Open starts a durable Manager rooted at cfg.Dir: it replays the
// journal, re-queues every job that had not finished (warm-starting each
// from its last checkpoint), compacts the log, and then serves new
// submissions exactly like New. Jobs whose journaled model or options no
// longer parse are finalized as failed rather than dropped, so their ids
// still resolve. Corruption in a sealed journal segment fails Open with
// a wal.CorruptError rather than silently dropping acknowledged jobs.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Open requires Config.Dir (use New for an in-memory manager)")
	}
	cfg = cfg.withDefaults()
	wlog, recs, err := wal.Open(cfg.Dir, wal.Config{Policy: cfg.Fsync})
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	pending, maxID := replayRecords(recs)
	// Compact before starting the pool: terminal jobs' records are
	// dropped, and duplicate segments left by a compaction that crashed
	// between rename and delete fold back into one (replay is idempotent
	// per job id, so the duplicates were harmless to read).
	live := make(map[string]bool, len(pending))
	for _, p := range pending {
		live[p.id] = true
	}
	if err := wlog.Compact(func(job string) bool { return live[job] }); err != nil {
		wlog.Close()
		return nil, fmt.Errorf("service: compact journal: %w", err)
	}
	m := newManager(cfg, wlog, len(pending))
	// The worker pool is already running; the id counter must resume
	// under the lock like every other nextID access.
	m.mu.Lock()
	m.nextID = maxID
	m.mu.Unlock()
	for _, p := range pending {
		m.requeue(p)
	}
	return m, nil
}

// pendingJob is one non-finished job reconstructed from the journal.
type pendingJob struct {
	id        string
	submitted bool
	rec       submittedRec
	warm      []int
	warmCost  float64
	attempts  int
}

// replayRecords folds the journal into the set of jobs to re-queue (in
// submission order) and the highest job number ever seen — the id
// counter must resume past finished jobs too, so a recycled id can never
// point a client at someone else's job.
//
// A job's records need not follow its lifecycle order: Submit enqueues a
// job before journaling its Submitted record, so a fast worker can
// journal Started, Checkpoint and even a terminal record first. Records
// therefore attach to their job wherever they sit, and a terminal record
// ends the job whatever its position.
func replayRecords(recs []wal.Record) ([]pendingJob, int) {
	byID := map[string]*pendingJob{}
	job := func(id string) *pendingJob {
		p := byID[id]
		if p == nil {
			p = &pendingJob{id: id}
			byID[id] = p
		}
		return p
	}
	var order []string
	final := map[string]bool{}
	maxID := 0
	for _, r := range recs {
		if n := idNumber(r.Job); n > maxID {
			maxID = n
		}
		switch r.Kind {
		case wal.KindSubmitted:
			p := job(r.Job)
			if p.submitted {
				continue // duplicate from an interrupted compaction
			}
			p.submitted = true
			if err := json.Unmarshal(r.Data, &p.rec); err != nil {
				// Keep the entry with a zero rec; requeue finalizes it
				// as failed so the id still resolves.
				p.rec = submittedRec{}
			}
			order = append(order, r.Job)
		case wal.KindStarted:
			job(r.Job).attempts++
		case wal.KindCheckpoint:
			var ck checkpointRec
			if err := json.Unmarshal(r.Data, &ck); err != nil {
				continue
			}
			if p := job(r.Job); p.warm == nil || ck.Cost < p.warmCost {
				p.warm, p.warmCost = ck.Assignment, ck.Cost
			}
		case wal.KindFinished, wal.KindCancelled:
			final[r.Job] = true
		}
	}
	out := make([]pendingJob, 0, len(order))
	for _, id := range order {
		if !final[id] {
			out = append(out, *byID[id])
		}
	}
	return out, maxID
}

// idNumber extracts the numeric suffix of a "job-%06d" or node-scoped
// "job-<node>-%06d" id (0 when the id has another shape).
func idNumber(id string) int {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil {
			return n
		}
	}
	return 0
}

// requeue reconstructs one journaled job and enqueues it. The queue was
// sized with headroom for every pending job, so the send cannot block.
// The job keeps its id; its submission clock restarts now (a job must
// never expire because the process was down) and its dedup key is
// recomputed from the same inputs Submit used, so restarts preserve
// dedup behavior.
func (m *Manager) requeue(p pendingJob) {
	fail := func(err error) {
		j := m.newRecoveredJob(p, Request{Solver: p.rec.Solver}, "")
		j.finalize(StateFailed, nil, fmt.Errorf("service: recover %s: %w", p.id, err))
		m.mu.Lock()
		m.jobs[j.id] = j
		m.mu.Unlock()
		m.ctr.failed.Add(1)
		m.journalFinish(j, wal.KindFinished, err)
		m.noteFinished(j.id)
	}
	if p.rec.Solver == "" || len(p.rec.Model) == 0 {
		fail(errors.New("journaled submission did not parse"))
		return
	}
	mdl := model.New()
	if err := mdl.UnmarshalJSON(p.rec.Model); err != nil {
		fail(fmt.Errorf("journaled model: %w", err))
		return
	}
	opts, _, err := p.rec.Options.Options()
	if err != nil {
		fail(fmt.Errorf("journaled options: %w", err))
		return
	}
	req := Request{
		Model:       mdl,
		Solver:      p.rec.Solver,
		Options:     opts,
		TimeLimit:   time.Duration(p.rec.TimeLimitMS) * time.Millisecond,
		NoDedup:     p.rec.NoDedup,
		WireOptions: p.rec.Options,
	}
	var key string
	if !req.NoDedup {
		if key, err = dedupKey(req, req.TimeLimit); err != nil {
			fail(fmt.Errorf("recompute dedup key: %w", err))
			return
		}
	}
	j := m.newRecoveredJob(p, req, key)
	m.mu.Lock()
	m.jobs[j.id] = j
	if key != "" {
		if _, taken := m.inflight[key]; !taken {
			m.inflight[key] = j
		}
	}
	m.mu.Unlock()
	m.queue <- j
}

// newRecoveredJob builds the Job shell for a journal entry, mirroring
// Submit's construction but keeping the journaled id.
func (m *Manager) newRecoveredJob(p pendingJob, req Request, key string) *Job {
	ctx, cancel := context.WithCancel(m.base)
	return &Job{
		id:        p.id,
		key:       key,
		mgr:       m,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		hits:      1,
		subs:      map[int]chan saim.Progress{},
		submitted: time.Now(),
		warm:      p.warm,
		recovered: true,
		// A recovered job's options were lowered from its journaled wire
		// form, so it is wire-reconstructible — and stealable.
		wireOnly: true,
	}
}

// journalSubmitted appends the job's KindSubmitted record. Called under
// m.mu from Submit; an error rejects the submission, so an acknowledged
// job is always re-creatable from the log.
func (m *Manager) journalSubmitted(j *Job, limit time.Duration) error {
	raw, err := j.req.Model.MarshalJSON()
	if err != nil {
		return err
	}
	data, err := json.Marshal(submittedRec{
		Solver:      j.req.Solver,
		Model:       raw,
		Options:     j.req.WireOptions,
		TimeLimitMS: limit.Milliseconds(),
		NoDedup:     j.req.NoDedup,
	})
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Kind: wal.KindSubmitted, Job: j.id, Data: data})
}

// journalStarted appends a KindStarted record (best-effort: a failed
// append degrades forensics, not correctness — the job is already
// re-creatable from its submitted record).
func (m *Manager) journalStarted(j *Job, attempt int) {
	if m.wal == nil {
		return
	}
	data, _ := json.Marshal(startedRec{Attempt: attempt})
	if err := m.wal.Append(wal.Record{Kind: wal.KindStarted, Job: j.id, Data: data}); err != nil {
		m.ctr.walErrors.Add(1)
	}
}

// journalFinish appends the job's terminal record (best-effort: on
// append failure the job re-runs after a crash, which is safe — results
// are reproducible and dedup keys survive).
func (m *Manager) journalFinish(j *Job, kind wal.Kind, err error) {
	if m.wal == nil {
		return
	}
	rec := finishedRec{State: StateDone.String()}
	if kind == wal.KindCancelled {
		rec.State = StateCancelled.String()
	}
	if err != nil {
		rec.State = StateFailed.String()
		rec.Err = err.Error()
	}
	data, _ := json.Marshal(rec)
	if werr := m.wal.Append(wal.Record{Kind: kind, Job: j.id, Data: data}); werr != nil {
		m.ctr.walErrors.Add(1)
	}
	m.mu.Lock()
	m.sinceCompact++
	m.mu.Unlock()
}

// checkpointFn builds the WithCheckpoint callback that journals
// best-so-far snapshots: the first improvement immediately (even a short
// solve leaves a warm start), later ones at most once per
// CheckpointInterval. The saim replica pool invokes it concurrently with
// per-replica bests, so it carries its own lock and best-cost guard; the
// guard also spans retries (the closure outlives attempts), so a retried
// job never journals a worse checkpoint than one it already logged.
func (m *Manager) checkpointFn(j *Job) func(assignment []int, cost float64) {
	var mu sync.Mutex
	best := math.Inf(1)
	var lastAt time.Time
	return func(assignment []int, cost float64) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if cost >= best || (!lastAt.IsZero() && now.Sub(lastAt) < m.cfg.CheckpointInterval) {
			return
		}
		best, lastAt = cost, now
		data, err := json.Marshal(checkpointRec{Assignment: assignment, Cost: cost})
		if err != nil {
			return
		}
		if err := m.wal.Append(wal.Record{Kind: wal.KindCheckpoint, Job: j.id, Data: data}); err != nil { //saim:lockok mu is this closure's private throttle; only concurrent checkpoint callbacks of the same job contend, and they are exactly what the append must serialize
			m.ctr.walErrors.Add(1)
		}
	}
}

// maybeCompact rewrites the journal once enough jobs finished since the
// last compaction, keeping records of live (queued or running) jobs
// only.
func (m *Manager) maybeCompact() {
	if m.wal == nil {
		return
	}
	// The WAL's own counters are read before taking m.mu: Stats holds the
	// journal's mutex, and the manager lock must not nest under anything
	// an fsync could be contending.
	walBytes := m.wal.Stats().Bytes
	m.mu.Lock()
	if m.sinceCompact < compactEvery || walBytes < compactMinBytes {
		m.mu.Unlock()
		return
	}
	m.sinceCompact = 0
	live := make(map[string]bool, len(m.jobs))
	for id, j := range m.jobs {
		j.lock()
		active := j.state == StateQueued || j.state == StateRunning
		j.unlock()
		if active {
			live[id] = true
		}
	}
	m.mu.Unlock()
	if err := m.wal.Compact(func(job string) bool { return live[job] }); err != nil {
		m.ctr.walErrors.Add(1)
	}
}
