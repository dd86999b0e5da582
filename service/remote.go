package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/wal"
	"github.com/ising-machines/saim/model"
)

// This file is the manager's side of cluster work-stealing: an idle peer
// pulls a queued job off this manager's queue (Steal), executes it on its
// own worker pool, and reports the outcome back (CompleteRemote). The
// job's identity — id, subscribers, dedup-index entry, journal records —
// never leaves this manager; only the solve itself moves. A lease bounds
// the thief's silence: if no completion arrives in time (thief died,
// network partitioned), the job goes back on the local queue.

// ErrNotStolen is returned by CompleteRemote when the job is not
// currently out on a steal lease — it finished locally, its lease
// expired and it was re-queued, or the id is simply not remote. The
// thief's result is discarded; the local execution is authoritative.
var ErrNotStolen = errors.New("service: job is not out on a steal lease")

// StolenJob is the wire form of a job handed to another node: everything
// the thief needs to re-create the solve from scratch. Options carry the
// victim's journaled wire options with any recovery checkpoint folded
// into Initial, so the thief's solve warm-starts exactly like a local
// re-run would.
type StolenJob struct {
	ID          string          `json:"id"`
	Solver      string          `json:"solver"`
	Model       json.RawMessage `json:"model"`
	Options     *SolveOptions   `json:"options,omitempty"`
	TimeLimitMS int64           `json:"time_limit_ms,omitempty"`
}

// RemoteResult is the wire form of a stolen job's outcome, posted back to
// the victim. Exactly one of the three shapes applies: Released true (the
// thief could not run the job — transient local backpressure — and hands
// it back unharmed), Error non-empty (the remote solve failed for good),
// or Result holding the solver result.
type RemoteResult struct {
	Released bool        `json:"released,omitempty"`
	Error    string      `json:"error,omitempty"`
	Result   *WireResult `json:"result,omitempty"`
}

// WireResult is the serializable subset of saim.Result that crosses
// nodes. Assignment nil means no feasible assignment was found.
type WireResult struct {
	Solver        string    `json:"solver"`
	Winner        string    `json:"winner,omitempty"`
	Assignment    []int     `json:"assignment,omitempty"`
	Cost          float64   `json:"cost"`
	FeasibleRatio float64   `json:"feasible_ratio"`
	Penalty       float64   `json:"penalty,omitempty"`
	Sweeps        int64     `json:"sweeps"`
	Iterations    int       `json:"iterations"`
	Lambda        []float64 `json:"lambda,omitempty"`
	Stopped       string    `json:"stopped"`
	Optimal       bool      `json:"optimal,omitempty"`
}

// ToWireResult encodes a solver result for the inter-node protocol. The
// infeasible +Inf cost is mapped to Assignment == nil (its JSON-safe
// encoding); ParseWireResult restores it.
func ToWireResult(res *saim.Result) *WireResult {
	out := &WireResult{
		Solver:        res.Solver,
		Winner:        res.Winner,
		FeasibleRatio: res.FeasibleRatio,
		Penalty:       res.Penalty,
		Sweeps:        res.Sweeps,
		Iterations:    res.Iterations,
		Lambda:        res.Lambda,
		Stopped:       res.Stopped.String(),
		Optimal:       res.Optimal,
	}
	if !res.Infeasible() {
		out.Assignment = res.Assignment
		out.Cost = res.Cost
	}
	return out
}

// parseStopReason inverts StopReason.String; unknown strings (a newer
// peer's vocabulary) degrade to StopCompleted rather than failing the
// whole result.
func parseStopReason(s string) saim.StopReason {
	for _, r := range []saim.StopReason{
		saim.StopCompleted, saim.StopCancelled, saim.StopTarget,
		saim.StopPatience, saim.StopTimeLimit,
	} {
		if r.String() == s {
			return r
		}
	}
	return saim.StopCompleted
}

// ParseWireResult decodes a peer's result back into a solver result.
func ParseWireResult(w *WireResult) *saim.Result {
	res := &saim.Result{
		Solver:        w.Solver,
		Winner:        w.Winner,
		FeasibleRatio: w.FeasibleRatio,
		Penalty:       w.Penalty,
		Sweeps:        w.Sweeps,
		Iterations:    w.Iterations,
		Lambda:        w.Lambda,
		Stopped:       parseStopReason(w.Stopped),
		Optimal:       w.Optimal,
	}
	if w.Assignment != nil {
		res.Assignment = w.Assignment
		res.Cost = w.Cost
	} else {
		res.Cost = math.Inf(1)
	}
	return res
}

// Steal hands out one queued, wire-reconstructible job for execution on
// another node. The job stays tracked here — same id, same subscribers,
// same dedup entry — but moves to StateRunning with no local worker
// attached; the caller must eventually report the outcome through
// CompleteRemote. If nothing arrives within the lease, the job is put
// back on the local queue. Jobs that are cancelled, or that carry
// functional options a remote process cannot re-create, are skipped (and
// stay queued). ok is false when no stealable job is queued.
func (m *Manager) Steal(lease time.Duration) (*StolenJob, bool) {
	if lease <= 0 {
		lease = 30 * time.Second
	}
	sj, j, attempt, ok := m.stealOne(lease)
	if !ok {
		return nil, false
	}
	// The start record is journaled OUTSIDE m.mu — under SyncAlways an
	// Append fsyncs, and an fsync must not stall every other manager
	// operation (lockguard enforces this). A crash between handing the
	// job out and appending the record replays the job as queued, which
	// is exactly the lease-expiry path's behavior: re-running a stolen
	// job is the steal protocol's idempotent case.
	m.journalStarted(j, attempt)
	return sj, true
}

// stealOne runs Steal's critical section: scan the queue for a
// stealable job, mark it running, and arm its lease, all under m.mu.
func (m *Manager) stealOne(lease time.Duration) (*StolenJob, *Job, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, nil, 0, false
	}
	// Drain up to the current queue length looking for a stealable job;
	// everything unstealable goes straight back. Submit sends under m.mu,
	// so no new job can slip in mid-scan and the re-sends cannot exceed
	// the queue's capacity (workers may shrink it concurrently, never
	// grow it).
	var putBack []*Job
	defer func() {
		for _, j := range putBack {
			m.queue <- j
		}
	}()
	for n := len(m.queue); n > 0; n-- {
		var j *Job
		select {
		case j = <-m.queue:
		default:
			return nil, nil, 0, false
		}
		j.lock()
		stealable := j.wireOnly && !j.cancelled && j.ctx.Err() == nil && j.state == StateQueued
		if !stealable {
			j.unlock()
			putBack = append(putBack, j)
			continue
		}
		raw, err := j.req.Model.MarshalJSON()
		if err != nil {
			j.unlock()
			putBack = append(putBack, j)
			continue
		}
		j.state = StateRunning
		j.remote = true
		j.started = time.Now()
		j.attempts++
		attempt := j.attempts
		opts := stolenOptions(j)
		j.lease = time.AfterFunc(lease, func() { m.requeueStolen(j) })
		j.unlock()
		m.ctr.stolen.Add(1)
		return &StolenJob{
			ID:          j.id,
			Solver:      j.req.Solver,
			Model:       raw,
			Options:     opts,
			TimeLimitMS: j.req.TimeLimit.Milliseconds(),
		}, j, attempt, true
	}
	return nil, nil, 0, false
}

// stolenOptions copies the job's wire options, folding a recovery
// checkpoint into Initial (mirroring runJob's warm-start prepend; an
// explicit Initial the caller set wins). Called with j locked.
func stolenOptions(j *Job) *SolveOptions {
	opts := j.req.WireOptions
	if j.warm == nil {
		return opts
	}
	var cp SolveOptions
	if opts != nil {
		cp = *opts
	}
	if len(cp.Initial) == 0 {
		cp.Initial = j.warm
	}
	return &cp
}

// requeueStolen is the lease-expiry path: the thief never reported back,
// so the job returns to the local queue for a worker (or another thief)
// to pick up. During a drain the queue is closed; the job is finalized
// as failed instead so its subscribers unblock.
func (m *Manager) requeueStolen(j *Job) {
	j.lock()
	if !j.remote || j.state != StateRunning {
		j.unlock()
		return
	}
	j.remote = false
	j.lease = nil
	j.state = StateQueued
	j.unlock()
	m.ctr.requeued.Add(1)
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			err := fmt.Errorf("service: steal lease on %s expired during drain", j.id)
			j.finalize(StateFailed, nil, err)
			m.detach(j)
			m.ctr.failed.Add(1)
			m.journalFinish(j, wal.KindFinished, err)
			m.noteFinished(j.id)
			return
		}
		select {
		case m.queue <- j:
			m.mu.Unlock()
			return
		default:
			m.mu.Unlock()
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-m.base.Done():
			return
		}
	}
}

// ReleaseStolen returns a stolen job to the local queue unharmed — the
// thief declining work it cannot run right now (its own queue filled, it
// started draining). ErrNotStolen reports a job not out on a lease.
func (m *Manager) ReleaseStolen(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("service: unknown job %q", id)
	}
	j.lock()
	if !j.remote || j.state != StateRunning {
		j.unlock()
		return ErrNotStolen
	}
	if j.lease != nil {
		j.lease.Stop()
	}
	j.unlock()
	m.requeueStolen(j)
	return nil
}

// CompleteRemote finalizes a stolen job with the result its thief
// produced, exactly as if a local worker had solved it: subscribers get
// their terminal event, the dedup cache is fed, and durable mode
// journals the finish. failure, when non-empty, fails the job instead.
// ErrNotStolen reports a job that is not (or no longer) out on a lease —
// the caller's result is discarded.
func (m *Manager) CompleteRemote(id string, res *saim.Result, failure string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("service: unknown job %q", id)
	}
	j.lock()
	if !j.remote || j.state != StateRunning {
		j.unlock()
		return ErrNotStolen
	}
	j.remote = false
	if j.lease != nil {
		j.lease.Stop()
		j.lease = nil
	}
	wasCancelled := j.cancelled
	j.unlock()

	// As in runJob, the counters move before finalize wakes waiters.
	switch {
	case failure != "":
		err := fmt.Errorf("service: remote solve: %s", failure)
		m.ctr.failed.Add(1)
		j.finalize(StateFailed, nil, err)
		m.detach(j)
		m.journalFinish(j, wal.KindFinished, err)
	case res == nil:
		err := errors.New("service: remote solve returned no result")
		m.ctr.failed.Add(1)
		j.finalize(StateFailed, nil, err)
		m.detach(j)
		m.journalFinish(j, wal.KindFinished, err)
	default:
		state := StateDone
		if wasCancelled && res.Stopped == saim.StopCancelled {
			state = StateCancelled
		}
		if state == StateDone {
			m.ctr.completed.Add(1)
			m.ctr.stolenDone.Add(1)
		} else {
			m.ctr.cancelled.Add(1)
		}
		j.finalize(state, model.NewSolution(j.req.Model, res), nil)
		m.mu.Lock()
		if cur, ok := m.inflight[j.key]; ok && cur == j {
			delete(m.inflight, j.key)
		}
		if state == StateDone && !j.req.NoDedup {
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
	return nil
}
