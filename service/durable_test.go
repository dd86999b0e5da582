package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/faultkit"
	"github.com/ising-machines/saim/internal/wal"
)

// testSolver is a registrable stub backend. The registry has no
// Unregister, so each behavior gets a unique name registered once per
// test binary.
type testSolver struct {
	name  string
	solve func(ctx context.Context, m *saim.Model, opts ...saim.Option) (*saim.Result, error)
}

func (s *testSolver) Name() string           { return s.name }
func (s *testSolver) Accepts(saim.Form) bool { return true }
func (s *testSolver) Solve(ctx context.Context, m *saim.Model, opts ...saim.Option) (*saim.Result, error) {
	return s.solve(ctx, m, opts...)
}

var (
	registerOnce sync.Once
	countSolves  atomic.Int64
)

func setupTestSolvers(t *testing.T) {
	t.Helper()
	registerOnce.Do(func() {
		delegate := func(ctx context.Context, m *saim.Model, opts ...saim.Option) (*saim.Result, error) {
			g, err := saim.Get("greedy")
			if err != nil {
				return nil, err
			}
			return g.Solve(ctx, m, opts...)
		}
		if err := saim.Register(&testSolver{name: "panic-test", solve: func(context.Context, *saim.Model, ...saim.Option) (*saim.Result, error) {
			panic("kaboom: injected test panic")
		}}); err != nil {
			panic(err)
		}
		if err := saim.Register(&testSolver{name: "count-test", solve: func(ctx context.Context, m *saim.Model, opts ...saim.Option) (*saim.Result, error) {
			countSolves.Add(1)
			return delegate(ctx, m, opts...)
		}}); err != nil {
			panic(err)
		}
	})
}

func openTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

func TestNewPanicsOnDurableConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Config.Dir did not panic")
		}
	}()
	New(Config{Dir: t.TempDir()})
}

// TestDurableRoundTripAndRestart is the happy path: a durable manager
// behaves like an in-memory one, a clean restart re-queues nothing, and
// the id counter resumes past every id the journal ever saw.
func TestDurableRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	mgr := openTestManager(t, Config{Dir: dir, Fsync: SyncAlways, Workers: 2})
	for i := 0; i < 2; i++ {
		j, err := mgr.Submit(Request{Model: knapModel(float64(i)), Solver: "greedy"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if len(res.Assignment) != 4 {
			t.Fatalf("assignment = %v", res.Assignment)
		}
	}
	st := mgr.Stats()
	if !st.Durable || st.Completed != 2 || st.WALAppended == 0 || st.WALLag != 0 {
		t.Fatalf("durable stats = %+v", st)
	}
	if err := mgr.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	mgr2 := openTestManager(t, Config{Dir: dir, Fsync: SyncAlways, Workers: 2})
	if jobs := mgr2.Jobs(); len(jobs) != 0 {
		t.Fatalf("clean restart re-queued %d jobs", len(jobs))
	}
	j, err := mgr2.Submit(Request{Model: knapModel(9), Solver: "greedy"})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if j.ID() != "job-000003" {
		t.Fatalf("post-restart id = %s, want job-000003 (counter must resume past journaled ids)", j.ID())
	}
}

// writeCrashJournal hand-crafts the WAL a crashed durable manager would
// leave behind: submitted (and optionally checkpointed) jobs with no
// terminal records.
func writeCrashJournal(t *testing.T, dir string, recs []wal.Record) {
	t.Helper()
	log, replayed, err := wal.Open(dir, wal.Config{Policy: wal.SyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if len(replayed) != 0 {
		t.Fatalf("journal dir not fresh: %d records", len(replayed))
	}
	for _, r := range recs {
		if err := log.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func submittedData(t *testing.T, m interface{ MarshalJSON() ([]byte, error) }, solver string, opts *SolveOptions) []byte {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(submittedRec{Solver: solver, Model: raw, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryRequeuesAndCompletes simulates, at the package level, the
// kill -9 that CI's crash-recovery job (TestCrashRecoveryKill9 in
// cmd/saimserve) delivers to a live process: a journal holding two
// non-finished jobs (one of them mid-solve when the "crash" hit) must
// re-queue both, complete them with valid results, and keep their ids
// resolvable and dedupable.
func TestRecoveryRequeuesAndCompletes(t *testing.T) {
	dir := t.TempDir()
	writeCrashJournal(t, dir, []wal.Record{
		{Kind: wal.KindSubmitted, Job: "job-000001", Data: submittedData(t, knapModel(0), "greedy", nil)},
		{Kind: wal.KindSubmitted, Job: "job-000002", Data: submittedData(t, knapModel(1), "greedy", nil)},
		{Kind: wal.KindStarted, Job: "job-000001", Data: []byte(`{"attempt":1}`)},
	})

	mgr := openTestManager(t, Config{Dir: dir, Workers: 2})
	for _, id := range []string{"job-000001", "job-000002"} {
		j, ok := mgr.Job(id)
		if !ok {
			t.Fatalf("recovered job %s not tracked", id)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("recovered %s failed: %v", id, err)
		}
		if len(res.Assignment) != 4 {
			t.Fatalf("recovered %s assignment = %v", id, res.Assignment)
		}
		if st := j.Status(); !st.Recovered {
			t.Fatalf("job %s not marked recovered: %+v", id, st)
		}
	}
	// Dedup keys are recomputed on recovery: an identical submission must
	// resolve to the recovered job (in flight or from its cached result),
	// never a duplicate solve.
	j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy"})
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if j.ID() != "job-000001" {
		t.Fatalf("duplicate of recovered job got id %s, want job-000001", j.ID())
	}
}

// TestReplayTerminalRecordBeforeSubmitted pins replay against the
// journal order a fast worker leaves: Submit enqueues before journaling,
// so a job's Started and Finished records can precede its Submitted
// record. The terminal record must still end the job, so a restart
// re-queues nothing and the id counter resumes past it.
func TestReplayTerminalRecordBeforeSubmitted(t *testing.T) {
	dir := t.TempDir()
	writeCrashJournal(t, dir, []wal.Record{
		{Kind: wal.KindStarted, Job: "job-000001", Data: []byte(`{"attempt":1}`)},
		{Kind: wal.KindFinished, Job: "job-000001"},
		{Kind: wal.KindSubmitted, Job: "job-000001", Data: submittedData(t, knapModel(0), "greedy", nil)},
	})
	mgr := openTestManager(t, Config{Dir: dir, Workers: 1})
	if jobs := mgr.Jobs(); len(jobs) != 0 {
		t.Fatalf("restart re-queued %d finished jobs", len(jobs))
	}
	j, err := mgr.Submit(Request{Model: knapModel(1), Solver: "greedy"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.ID() != "job-000002" {
		t.Fatalf("post-restart id = %s, want job-000002", j.ID())
	}
}

// TestRecoveryWarmStartsFromCheckpoint pins the warm-start acceptance:
// a recovered job given a checkpointed optimal assignment and an almost
// zero solve budget must still report a cost no worse than the
// checkpoint — WithInitial's never-worse-than-seed guarantee carried
// across the crash.
func TestRecoveryWarmStartsFromCheckpoint(t *testing.T) {
	m := knapModel(0)
	sol, err := m.Solve(context.Background(), "exact")
	if err != nil {
		t.Fatalf("exact reference solve: %v", err)
	}
	ref := sol.Result()
	if len(ref.Assignment) != 4 {
		t.Fatalf("reference assignment = %v", ref.Assignment)
	}

	ck, err := json.Marshal(checkpointRec{Assignment: ref.Assignment, Cost: ref.Cost})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeCrashJournal(t, dir, []wal.Record{
		{Kind: wal.KindSubmitted, Job: "job-000001", Data: submittedData(t, knapModel(0), "saim",
			&SolveOptions{Iterations: 1, SweepsPerRun: 2, Seed: 9})},
		{Kind: wal.KindStarted, Job: "job-000001", Data: []byte(`{"attempt":1}`)},
		{Kind: wal.KindCheckpoint, Job: "job-000001", Data: ck},
	})

	mgr := openTestManager(t, Config{Dir: dir, Workers: 1})
	j, ok := mgr.Job("job-000001")
	if !ok {
		t.Fatal("checkpointed job not recovered")
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("recovered solve: %v", err)
	}
	if res.Cost > ref.Cost {
		t.Fatalf("recovered cost %v worse than checkpoint %v: warm start not applied", res.Cost, ref.Cost)
	}
}

// TestUnparseableJournalEntryFailsJobNotManager: a journaled job whose
// body no longer parses must finalize as failed (id still resolves) —
// and must not take the whole manager down with it.
func TestUnparseableJournalEntryFailsJobNotManager(t *testing.T) {
	dir := t.TempDir()
	writeCrashJournal(t, dir, []wal.Record{
		{Kind: wal.KindSubmitted, Job: "job-000001", Data: []byte(`{"solver":"greedy","model":{"vars":`)},
		{Kind: wal.KindSubmitted, Job: "job-000002", Data: submittedData(t, knapModel(0), "greedy", nil)},
	})
	mgr := openTestManager(t, Config{Dir: dir, Workers: 1})
	j, ok := mgr.Job("job-000001")
	if !ok {
		t.Fatal("unparseable job id must still resolve")
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("unparseable job must fail")
	}
	good, ok := mgr.Job("job-000002")
	if !ok {
		t.Fatal("sibling job not recovered")
	}
	if _, err := good.Wait(context.Background()); err != nil {
		t.Fatalf("sibling job failed: %v", err)
	}
}

// TestQueuedExpiredJobsFailFast pins the satellite: flood the queue with
// jobs whose whole TimeLimit elapses before any worker frees up — every
// one must fail with ErrDeadlineExpired and no solve work may run.
func TestQueuedExpiredJobsFailFast(t *testing.T) {
	setupTestSolvers(t)
	mgr := newTestManager(t, Config{Workers: 1, QueueDepth: 32})

	blocker, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim", Options: slowOpts(1), NoDedup: true})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	countSolves.Store(0)
	const flood = 8
	jobs := make([]*Job, 0, flood)
	for i := 0; i < flood; i++ {
		j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "count-test",
			TimeLimit: 30 * time.Millisecond, NoDedup: true})
		if err != nil {
			t.Fatalf("Submit flood %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	// Hold the worker until every flooded job's budget has fully elapsed.
	time.Sleep(100 * time.Millisecond)
	blocker.Cancel()
	<-blocker.Done()

	for i, j := range jobs {
		_, err := j.Wait(context.Background())
		if !errors.Is(err, ErrDeadlineExpired) {
			t.Fatalf("flood job %d err = %v, want ErrDeadlineExpired", i, err)
		}
	}
	if n := countSolves.Load(); n != 0 {
		t.Fatalf("%d solves ran for expired jobs, want 0", n)
	}
	if st := mgr.Stats(); st.Expired != flood {
		t.Fatalf("Stats.Expired = %d, want %d", st.Expired, flood)
	}
}

// TestPanicContainmentAndQuarantine pins the tentpole's containment
// layer: an always-panicking backend fails only its own job (siblings on
// other workers complete), retries MaxRetries times, then quarantines
// its dedup key so identical submissions fail fast.
func TestPanicContainmentAndQuarantine(t *testing.T) {
	setupTestSolvers(t)
	mgr := newTestManager(t, Config{Workers: 3, MaxRetries: 2, RetryBackoff: time.Millisecond})

	poison := Request{Model: knapModel(2), Solver: "panic-test"}
	bad, err := mgr.Submit(poison)
	if err != nil {
		t.Fatalf("Submit poison: %v", err)
	}
	var siblings []*Job
	for i := 0; i < 2; i++ {
		j, err := mgr.Submit(Request{Model: knapModel(float64(i)), Solver: "greedy", NoDedup: true})
		if err != nil {
			t.Fatalf("Submit sibling: %v", err)
		}
		siblings = append(siblings, j)
	}

	_, err = bad.Wait(context.Background())
	if !errors.Is(err, ErrSolverPanic) {
		t.Fatalf("poison err = %v, want ErrSolverPanic", err)
	}
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("poison err = %v, want ErrQuarantined after MaxRetries", err)
	}
	if st := bad.Status(); st.State != StateFailed || st.Attempts != 3 {
		t.Fatalf("poison status = %+v, want failed after 3 attempts", st)
	}
	for i, j := range siblings {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("sibling %d failed alongside the panicking job: %v", i, err)
		}
	}

	// The key is poisoned: an identical submission fails fast, a
	// different model still solves.
	if _, err := mgr.Submit(poison); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("resubmit of quarantined request = %v, want ErrQuarantined", err)
	}
	ok, err := mgr.Submit(Request{Model: knapModel(3), Solver: "greedy"})
	if err != nil {
		t.Fatalf("healthy Submit after quarantine: %v", err)
	}
	if _, err := ok.Wait(context.Background()); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}

	st := mgr.Stats()
	if st.Panics != 3 || st.Retries != 2 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want Panics 3 Retries 2 Quarantined 1", st)
	}
}

// TestInjectedSolveFaults exercises the faultkit hook in the solve path:
// an injected panic is contained like a real one, an injected delay
// keeps the job well-formed.
func TestInjectedSolveFaults(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1, MaxRetries: -1})
	faultkit.Set("service.solve", faultkit.Panic("injected solve panic"))
	t.Cleanup(func() { faultkit.Clear("service.solve") })
	j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy", NoDedup: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrSolverPanic) {
		t.Fatalf("err = %v, want ErrSolverPanic", err)
	}

	faultkit.Set("service.solve", faultkit.Sleep(10*time.Millisecond))
	j2, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy", NoDedup: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("delayed solve failed: %v", err)
	}
}

// TestSubmitFailsWhenJournalUnavailable: durability is a promise — if
// the submitted record cannot be written, the submission must be
// rejected, not silently accepted as volatile.
func TestSubmitFailsWhenJournalUnavailable(t *testing.T) {
	mgr := openTestManager(t, Config{Dir: t.TempDir(), Workers: 1})
	boom := errors.New("journal disk gone")
	faultkit.Set("wal.append", faultkit.Error(boom))
	t.Cleanup(func() { faultkit.Clear("wal.append") })
	if _, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy"}); !errors.Is(err, boom) {
		t.Fatalf("Submit under journal fault = %v, want %v", err, boom)
	}
	faultkit.Clear("wal.append")
	j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy"})
	if err != nil {
		t.Fatalf("Submit after fault cleared: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := mgr.Stats(); st.Submitted != 1 {
		t.Fatalf("Stats.Submitted = %d, want 1 (rejected submit must not count)", st.Submitted)
	}
}

// TestRetractedJobLeavesResultCache pins the order the race above can
// take: a worker finishes (and caches) a job before its journal append
// fails. Retraction must pull it out of the dedup cache, or an identical
// submission would be handed a job that was never accepted.
func TestRetractedJobLeavesResultCache(t *testing.T) {
	mgr := openTestManager(t, Config{Dir: t.TempDir(), Workers: 1})
	req := Request{Model: knapModel(0), Solver: "greedy"}
	j, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mgr.retractSubmit(j)
	j2, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j {
		t.Fatal("identical submission deduplicated onto a retracted job")
	}
}

// TestWireOptionsSubmitPath: Submit lowers WireOptions itself (the
// saimserve path), explicit functional options still win, and the wire
// time limit applies.
func TestWireOptionsSubmitPath(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	j, err := mgr.Submit(Request{
		Model:       knapModel(0),
		Solver:      "exact",
		WireOptions: &SolveOptions{TimeLimitMS: 5000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.req.TimeLimit != 5*time.Second {
		t.Fatalf("wire time limit not applied: %v", j.req.TimeLimit)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Cost != -15 {
		t.Fatalf("cost = %v, want -15", res.Cost)
	}
	// Identical wire submission dedups against it.
	dup, err := mgr.Submit(Request{Model: knapModel(0), Solver: "exact", WireOptions: &SolveOptions{TimeLimitMS: 5000}})
	if err != nil {
		t.Fatalf("dup Submit: %v", err)
	}
	if dup.ID() != j.ID() {
		t.Fatalf("wire-lowered dedup broken: %s vs %s", dup.ID(), j.ID())
	}
}

// TestCheckpointRecordsWritten: a durable saim solve journals at least
// one checkpoint (the first improvement is unthrottled), and the journal
// replays it as the job's warm start.
func TestCheckpointRecordsWritten(t *testing.T) {
	dir := t.TempDir()
	mgr := openTestManager(t, Config{Dir: dir, Workers: 1, CheckpointInterval: time.Second})
	j, err := mgr.Submit(Request{
		Model:       knapModel(0),
		Solver:      "saim",
		WireOptions: &SolveOptions{Iterations: 20, SweepsPerRun: 50, Seed: 3},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := mgr.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, recs, err := wal.Open(dir, wal.Config{Policy: wal.SyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	var checkpoints int
	for _, r := range recs {
		if r.Kind == wal.KindCheckpoint && r.Job == j.ID() {
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint records journaled for a feasible saim solve")
	}
}
