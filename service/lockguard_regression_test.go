package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/faultkit"
)

// These tests pin the lockguard findings fixed in this PR: Submit and
// Steal used to append their WAL records while holding m.mu, so under
// Fsync=SyncAlways a single slow fsync gated every other manager
// operation. The fix journals outside the critical section; each test
// stalls the fsync with a failpoint and asserts the manager lock stays
// available the whole time.

// stallSync arms the wal.sync failpoint so that every sync blocks until
// release is closed; the first blocked sync closes entered.
func stallSync(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	faultkit.Set("wal.sync", func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	t.Cleanup(func() { faultkit.Clear("wal.sync") })
	return entered, release
}

// probeManagerLock runs m.mu-guarded operations and fails the test if
// any of them stalls for 5 s — the signature of a lock held across the
// stalled fsync. Stats is deliberately absent: it reads the journal's
// own counters, which ARE held during a sync by design.
func probeManagerLock(t *testing.T, mgr *Manager, during string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		mgr.Job("no-such-id")
		mgr.Jobs()
		mgr.Cancel("no-such-id")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("manager lock held across the journal fsync in %s", during)
	}
}

func TestSubmitJournalsOutsideManagerLock(t *testing.T) {
	setupTestSolvers(t)
	mgr := openTestManager(t, Config{Dir: t.TempDir(), Fsync: SyncAlways, Workers: 1, QueueDepth: 8})
	blockWorker(t, mgr)

	entered, release := stallSync(t)
	subErr := make(chan error, 1)
	go func() {
		_, err := mgr.Submit(wireRequest(3, 11))
		subErr <- err
	}()
	<-entered // Submit is now inside its journal fsync

	probeManagerLock(t, mgr, "Submit")

	close(release)
	if err := <-subErr; err != nil {
		t.Fatalf("Submit after released fsync: %v", err)
	}
}

func TestStealJournalsOutsideManagerLock(t *testing.T) {
	setupTestSolvers(t)
	mgr := openTestManager(t, Config{Dir: t.TempDir(), Fsync: SyncAlways, Workers: 1, QueueDepth: 8})
	blockWorker(t, mgr)
	wireJob, err := mgr.Submit(wireRequest(4, 13))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wireJob.Cancel)

	entered, release := stallSync(t)
	type stole struct {
		sj *StolenJob
		ok bool
	}
	got := make(chan stole, 1)
	go func() {
		sj, ok := mgr.Steal(time.Minute)
		got <- stole{sj, ok}
	}()
	<-entered // Steal is now journaling its start record

	probeManagerLock(t, mgr, "Steal")

	close(release)
	res := <-got
	if !res.ok || res.sj == nil || res.sj.ID != wireJob.ID() {
		t.Fatalf("Steal = %+v, %v; want the queued wire job %q", res.sj, res.ok, wireJob.ID())
	}
	if err := mgr.ReleaseStolen(res.sj.ID); err != nil {
		t.Fatalf("ReleaseStolen: %v", err)
	}
}

// TestRetractedSubmitLeavesNoTrace pins the new failure path: when the
// journal rejects the submitted record, the already-queued job is
// retracted — it disappears from the index, never runs, and an identical
// resubmission after the journal recovers starts fresh instead of
// deduplicating onto the doomed job.
func TestRetractedSubmitLeavesNoTrace(t *testing.T) {
	setupTestSolvers(t)
	// Checkpoints off: the blocker's journal traffic is then exactly its
	// Submitted and Started records.
	mgr := openTestManager(t, Config{Dir: t.TempDir(), Fsync: SyncAlways, Workers: 1, QueueDepth: 8, CheckpointInterval: -1})
	blockWorker(t, mgr)
	// The worker journals Started after the blocker turns running; arm
	// the one-shot failpoint only once that append is done, or Started
	// consumes it instead of the Submit under test.
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().WALAppended < 2 {
		if time.Now().After(deadline) {
			t.Fatal("blocker's Started record never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}

	faultkit.Set("wal.append", faultkit.Times(1, faultkit.Error(errors.New("journal disk gone"))))
	t.Cleanup(func() { faultkit.Clear("wal.append") })

	req := Request{Model: knapModel(5), Solver: "count-test"}
	if _, err := mgr.Submit(req); err == nil {
		t.Fatal("Submit with failing journal succeeded")
	}
	if n := len(mgr.Jobs()); n != 1 { // only the blocker remains indexed
		t.Fatalf("retracted job still indexed: %d jobs", n)
	}

	// The journal works again: the identical request must be admitted as
	// a fresh job, not deduplicated onto the retracted one.
	j, err := mgr.Submit(req)
	if err != nil {
		t.Fatalf("resubmit after journal recovery: %v", err)
	}
	if j.Status().Hits != 1 {
		t.Fatalf("resubmission deduped onto the retracted job: hits=%d", j.Status().Hits)
	}
}
