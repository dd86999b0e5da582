package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
)

// knapModel builds a small knapsack whose optimum is known (value 15 →
// cost −15), parameterized so distinct seeds produce distinct models.
func knapModel(shift float64) *model.Model {
	m := model.New()
	x := m.Binary("take", 4)
	m.Maximize(model.Dot([]float64{10, 7, 5, 3 + shift}, x))
	m.Constrain("w", model.Dot([]float64{4, 3, 2, 1}, x).LE(6))
	return m
}

// slowModel is a constrained model given a budget big enough to outlive
// any test deadline, for cancellation and timeout scenarios.
func slowOpts(seed uint64) []saim.Option {
	return []saim.Option{
		saim.WithSeed(seed),
		saim.WithIterations(2_000_000),
		saim.WithSweepsPerRun(200),
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

// TestSubmitSolveResult is the smoke path: submit, wait, read a correct
// result and a name-aware solution.
func TestSubmitSolveResult(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 2})
	j, err := mgr.Submit(Request{
		Model:  knapModel(0),
		Solver: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible() || res.Cost != -15 {
		t.Fatalf("cost = %v, want -15", res.Cost)
	}
	sol, err := j.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective() != 15 {
		t.Fatalf("objective = %v, want 15", sol.Objective())
	}
	if st := j.Status(); st.State != StateDone || st.Hits != 1 {
		t.Fatalf("status = %+v", st)
	}
}

// TestDedupServesIdenticalResult pins the cache keying: an identical
// submission — same model declarations, same options — attaches to the
// same job and returns the identical *saim.Result, whether it dedups
// in flight or from the finished cache. A differing option starts a
// fresh job.
func TestDedupServesIdenticalResult(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	req := func() Request {
		return Request{
			Model:   knapModel(0), // rebuilt per call: dedup must be structural
			Solver:  "saim",
			Options: []saim.Option{saim.WithSeed(3), saim.WithIterations(40), saim.WithSweepsPerRun(100)},
		}
	}
	a, err := mgr.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical in-flight submissions returned distinct jobs")
	}
	resA, err := a.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// Now finished: a third identical submission must come from cache.
	c, err := mgr.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("identical finished submission missed the cache")
	}
	resC, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if resA != resC {
		t.Fatal("cached submission returned a different Result pointer")
	}
	if st := c.Status(); st.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Hits)
	}

	// A different seed is a different solve.
	d, err := mgr.Submit(Request{
		Model:   knapModel(0),
		Solver:  "saim",
		Options: []saim.Option{saim.WithSeed(4), saim.WithIterations(40), saim.WithSweepsPerRun(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("different options deduplicated")
	}
	// As is a different model.
	e, err := mgr.Submit(Request{
		Model:   knapModel(1),
		Solver:  "saim",
		Options: []saim.Option{saim.WithSeed(3), saim.WithIterations(40), saim.WithSweepsPerRun(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e == a {
		t.Fatal("different model deduplicated")
	}
	// NoDedup forces a fresh job even for an identical request.
	f, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim",
		Options: []saim.Option{saim.WithSeed(3), saim.WithIterations(40), saim.WithSweepsPerRun(100)}, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if f == a {
		t.Fatal("NoDedup submission was deduplicated")
	}
}

// TestCancelFreesWorkerPromptly pins the cancellation path: a running job
// with an enormous budget is cancelled and its worker picks up the next
// job quickly.
func TestCancelFreesWorkerPromptly(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	slow, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim", Options: slowOpts(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it actually runs.
	deadline := time.Now().Add(5 * time.Second)
	for slow.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	next, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	slow.Cancel()
	if _, err := next.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker freed after %v", elapsed)
	}
	if st := slow.Status(); st.State != StateCancelled {
		t.Fatalf("cancelled job state = %v", st.State)
	}
	// A cancelled mid-solve job still surfaces its best-so-far result.
	if res, err := slow.Result(); err == nil {
		if res.Stopped != saim.StopCancelled {
			t.Fatalf("Stopped = %v, want cancelled", res.Stopped)
		}
	}
	// And a fresh identical submission is NOT glued to the cancelled job.
	again, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim", Options: slowOpts(1)})
	if err != nil {
		t.Fatal(err)
	}
	if again == slow {
		t.Fatal("new submission adopted a cancelled job")
	}
	again.Cancel()
}

// TestQueueBackpressure pins ErrQueueFull: with one busy worker and a
// depth-1 queue, the third submission is rejected rather than buffered.
func TestQueueBackpressure(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1, QueueDepth: 1})
	var jobs []*Job
	full := false
	for i := 0; i < 8; i++ {
		j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim", Options: slowOpts(uint64(i + 1)), NoDedup: true})
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("want ErrQueueFull, got %v", err)
			}
			full = true
			break
		}
		jobs = append(jobs, j)
	}
	if !full {
		t.Fatal("queue never filled")
	}
	for _, j := range jobs {
		j.Cancel()
	}
}

// TestTimeLimitAcrossService pins the deadline path end to end: a job
// with a tight time limit and a huge budget finishes quickly and reports
// StopTimeLimit.
func TestTimeLimitAcrossService(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 2})
	start := time.Now()
	j, err := mgr.Submit(Request{
		Model:     knapModel(0),
		Solver:    "saim",
		Options:   slowOpts(2),
		TimeLimit: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != saim.StopTimeLimit {
		t.Fatalf("Stopped = %v, want time-limit", res.Stopped)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline overshot: %v", elapsed)
	}
	if j.Status().State != StateDone {
		t.Fatalf("state = %v, want done (a timed-out solve is a completed job)", j.Status().State)
	}
}

// TestProgressFanOut pins the subscription contract: multiple subscribers
// each see an ordered stream ending with channel close, and the fleet
// monitor observes monotone totals.
func TestProgressFanOut(t *testing.T) {
	var monMu sync.Mutex
	var lastSweeps int64
	monotone := true
	mgr := newTestManager(t, Config{
		Workers: 2,
		Monitor: func(p saim.Progress) {
			monMu.Lock()
			if p.Sweeps < lastSweeps {
				monotone = false
			}
			lastSweeps = p.Sweeps
			monMu.Unlock()
		},
	})
	j, err := mgr.Submit(Request{
		Model:   knapModel(0),
		Solver:  "saim",
		Options: []saim.Option{saim.WithSeed(5), saim.WithIterations(60), saim.WithSweepsPerRun(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch1, stop1 := j.Subscribe(4)
	ch2, _ := j.Subscribe(4)
	defer stop1()
	seen1, seen2 := 0, 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		last := -1
		for p := range ch1 {
			if p.Iteration < last {
				t.Errorf("subscriber 1 saw out-of-order iteration %d after %d", p.Iteration, last)
			}
			last = p.Iteration
			seen1++
		}
	}()
	go func() {
		defer wg.Done()
		for range ch2 {
			seen2++
		}
	}()
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if seen1 == 0 || seen2 == 0 {
		t.Fatalf("subscribers saw %d and %d snapshots", seen1, seen2)
	}
	monMu.Lock()
	defer monMu.Unlock()
	if lastSweeps == 0 {
		t.Fatal("fleet monitor never fired")
	}
	if !monotone {
		t.Fatal("fleet sweep totals went backwards")
	}
}

// TestGracefulDrain pins Close: intake stops, queued work finishes, and
// the pool winds down.
func TestGracefulDrain(t *testing.T) {
	mgr := New(Config{Workers: 2})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := mgr.Submit(Request{
			Model:   knapModel(0),
			Solver:  "saim",
			Options: []saim.Option{saim.WithSeed(uint64(i + 1)), saim.WithIterations(30), saim.WithSweepsPerRun(100)},
			NoDedup: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		if _, err := j.Result(); err != nil {
			t.Fatalf("job %d after drain: %v", i, err)
		}
	}
	if _, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submit: %v, want ErrClosed", err)
	}
}

// TestForcedDrainCancelsRunning pins the Close escape hatch: when the
// drain context expires, running jobs are force-cancelled and still
// finalize.
func TestForcedDrainCancelsRunning(t *testing.T) {
	mgr := New(Config{Workers: 1})
	j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "saim", Options: slowOpts(9)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mgr.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("force-cancelled job did not finalize")
	}
}

// TestConcurrentHammering is the acceptance scenario under -race: many
// concurrent submissions across distinct and duplicate keys, mid-solve
// cancels, and subscribers, all racing against each other. Every
// completed job must carry a result consistent with its own model.
func TestConcurrentHammering(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 4, QueueDepth: 256, CacheSize: 64})
	const (
		submitters = 8
		perWorker  = 12
		variants   = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, submitters*perWorker)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				variant := (s + i) % variants
				j, err := mgr.Submit(Request{
					Model:  knapModel(float64(variant)),
					Solver: "saim",
					Options: []saim.Option{
						saim.WithSeed(uint64(variant + 1)),
						saim.WithIterations(25),
						saim.WithSweepsPerRun(80),
					},
				})
				if err != nil {
					if errors.Is(err, ErrQueueFull) {
						continue // backpressure is a legal outcome
					}
					errCh <- err
					return
				}
				switch i % 3 {
				case 0:
					ch, stop := j.Subscribe(2)
					go func() {
						for range ch {
						}
					}()
					defer stop()
				case 1:
					if i%6 == 1 {
						go j.Cancel()
					}
				}
				res, err := j.Wait(t.Context())
				if err != nil {
					// Cancelled-before-run jobs legitimately have no result.
					if j.Status().State == StateCancelled {
						continue
					}
					errCh <- fmt.Errorf("variant %d: %w", variant, err)
					return
				}
				if res.Assignment != nil {
					cost, feasible, err := mustCompile(t, knapModel(float64(variant))).Evaluate(res.Assignment)
					if err != nil || !feasible {
						errCh <- fmt.Errorf("variant %d: invalid assignment (err=%v)", variant, err)
						return
					}
					if cost != res.Cost {
						errCh <- fmt.Errorf("variant %d: reported %v, evaluated %v", variant, res.Cost, cost)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func mustCompile(t *testing.T, m *model.Model) *saim.Model {
	t.Helper()
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCancelFinishedIsNoOp pins the Cancel contract on terminal jobs: a
// cancel after completion must not evict the cached result, so the next
// identical submission is still a cache hit.
func TestCancelFinishedIsNoOp(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	req := Request{Model: knapModel(0), Solver: "greedy"}
	j, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	j.Cancel() // finished: must be a true no-op
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("state after no-op cancel = %v", st.State)
	}
	dup, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup != j {
		t.Fatal("cancel of a finished job evicted its cached result")
	}
}

// TestExplicitOptionTimeLimitWins pins deadline precedence: a
// WithTimeLimit the caller puts among its own options overrides the
// manager's (much longer) default, so the default can never loosen a
// deadline the caller tightened.
func TestExplicitOptionTimeLimitWins(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1, DefaultTimeLimit: 10 * time.Hour})
	j, err := mgr.Submit(Request{
		Model:   knapModel(0),
		Solver:  "saim",
		Options: append(slowOpts(3), saim.WithTimeLimit(150*time.Millisecond)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != saim.StopTimeLimit {
		t.Fatalf("Stopped = %v, want time-limit", res.Stopped)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("explicit 150ms limit ran %v — the default overrode it", elapsed)
	}
}

// TestCachedJobIDSurvivesPruning pins the index/cache consistency: a job
// resident in the result cache must stay resolvable by id no matter how
// many other jobs churn through the pruning FIFO.
func TestCachedJobIDSurvivesPruning(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 2, QueueDepth: 128, CacheSize: 2})
	req := Request{Model: knapModel(0), Solver: "greedy"}
	cached, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	// Churn well past the pruning limit (max(4*CacheSize, 64) = 64).
	for i := 0; i < 80; i++ {
		j, err := mgr.Submit(Request{Model: knapModel(0), Solver: "greedy", NoDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := mgr.Job(cached.ID()); !ok {
		t.Fatal("cached job's id was pruned while its result is still served from cache")
	}
	dup, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup != cached {
		t.Fatal("cache entry lost")
	}
}

// TestSubmitValidation pins the error paths.
func TestSubmitValidation(t *testing.T) {
	mgr := newTestManager(t, Config{Workers: 1})
	if _, err := mgr.Submit(Request{Solver: "saim"}); err == nil {
		t.Fatal("accepted a nil model")
	}
	if _, err := mgr.Submit(Request{Model: knapModel(0), Solver: "no-such"}); err == nil {
		t.Fatal("accepted an unknown solver")
	}
	bad := model.New()
	bad.Binary("", 2) // accumulates a construction error
	if _, err := mgr.Submit(Request{Model: bad, Solver: "saim"}); err == nil {
		t.Fatal("accepted a broken model")
	}
}

// TestWireOptions pins the JSON option lowering.
func TestWireOptions(t *testing.T) {
	target := -3.5
	ten := 2
	w := &SolveOptions{
		Alpha: 2, Eta: 5, Iterations: 7, SweepsPerRun: 11, BetaMax: 9,
		Seed: 42, Machine: "sparse", Replicas: 3, Population: 50,
		TimeLimitMS: 1500, NodeLimit: 99, TargetCost: &target,
		Patience: 4, Initial: []int{1, 0}, SubproblemSize: 64,
		InnerSolver: "pt", Rounds: 2, TabuTenure: &ten, Racers: []string{"saim", "greedy"},
	}
	opts, limit, err := w.Options()
	if err != nil {
		t.Fatal(err)
	}
	if limit != 1500*time.Millisecond {
		t.Fatalf("limit = %v", limit)
	}
	// The lowering must be deterministic and fingerprint-stable.
	if saim.OptionsFingerprint(opts...) != saim.OptionsFingerprint(opts...) {
		t.Fatal("unstable fingerprint")
	}
	if _, _, err := (&SolveOptions{Machine: "quantum"}).Options(); err == nil {
		t.Fatal("accepted an unknown machine kind")
	}
	if _, _, err := (&SolveOptions{TimeLimitMS: -1}).Options(); err == nil {
		t.Fatal("accepted a negative time limit")
	}
}

// A time limit beyond what a time.Duration holds is rejected, not wrapped:
// 18446744073710 ms used to lower to a 448.384 µs limit, and 9223372036855
// ms to a negative one that Submit replaced with the manager default. The
// longest representable limit still converts exactly.
func TestWireOptionsTimeLimitOverflow(t *testing.T) {
	for _, ms := range []int64{18446744073710, 9223372036855, math.MaxInt64} {
		if _, limit, err := (&SolveOptions{TimeLimitMS: ms}).Options(); err == nil {
			t.Fatalf("time_limit_ms %d: accepted as %v", ms, limit)
		}
	}
	mgr := New(Config{Workers: 1})
	defer mgr.Close(context.Background())
	for _, ms := range []int64{18446744073710, 9223372036855} {
		if _, err := mgr.Submit(Request{Model: knapModel(0), Solver: "exact", WireOptions: &SolveOptions{TimeLimitMS: ms}}); err == nil {
			t.Fatalf("time_limit_ms %d: Submit accepted it", ms)
		}
	}
	const longest = 9223372036854
	_, limit, err := (&SolveOptions{TimeLimitMS: longest}).Options()
	if err != nil {
		t.Fatal(err)
	}
	if limit != longest*time.Millisecond {
		t.Fatalf("time_limit_ms %d lowered to %v", int64(longest), limit)
	}
}
