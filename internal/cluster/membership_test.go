package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ising-machines/saim/service"
)

// fakePing is a controllable pingFunc: peers in the down set time out,
// everyone else answers.
type fakePing struct {
	mu   sync.Mutex
	down map[string]bool // keyed by addr
}

func (f *fakePing) set(addr string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = map[string]bool{}
	}
	f.down[addr] = down
}

func (f *fakePing) ping(ctx context.Context, id, addr string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[addr] {
		return false, errors.New("fake: unreachable")
	}
	return false, nil
}

// peerFor pulls one peer's info out of a snapshot.
func peerFor(t *testing.T, m *membership, id string) PeerInfo {
	t.Helper()
	for _, p := range m.snapshot() {
		if p.ID == id {
			return p
		}
	}
	t.Fatalf("peer %q missing from snapshot", id)
	return PeerInfo{}
}

// stateFor pulls one peer's state out of a snapshot.
func stateFor(t *testing.T, m *membership, id string) string {
	t.Helper()
	return peerFor(t, m, id).State
}

// TestMembershipJoinWindowSchedule pins the heartbeat schedule on a fake
// clock: a sweep at start, then one every interval/8 up to one interval,
// then one every interval, each probe's deadline one cadence after its
// sweep began.
func TestMembershipJoinWindowSchedule(t *testing.T) {
	const interval = time.Hour // virtual; probe deadlines stay in the real future
	step := interval / 8
	clk := newFakeClock()
	type probe struct{ at, deadline time.Time }
	probes := make(chan probe)
	m := newMembership(membershipConfig{
		self:     "n1",
		peers:    map[string]string{"n1": "a1", "n2": "a2"},
		interval: interval,
		clock:    clk,
		ping: func(ctx context.Context, id, addr string) (bool, error) {
			dl, _ := ctx.Deadline()
			select {
			case probes <- probe{at: clk.Now(), deadline: dl}:
			case <-ctx.Done():
			}
			return false, nil
		},
	})
	boot := clk.Now()
	m.start()
	defer m.stop()

	expect := func(at, timeout time.Duration) {
		t.Helper()
		select {
		case p := <-probes:
			if got := p.at.Sub(boot); got != at {
				t.Fatalf("sweep at %v, want %v", got, at)
			}
			if got := p.deadline.Sub(p.at); got != timeout {
				t.Fatalf("probe at %v times out after %v, want %v", at, got, timeout)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no sweep at %v", at)
		}
	}
	// Each expect returns once the loop has taken its tick and is
	// probing, so the next tick cannot be dropped on a full channel.
	expect(0, step)
	for k := 1; k <= 8; k++ {
		if got := clk.Advance(step); got != 1 {
			t.Fatalf("advancing to %v delivered %d ticks, want 1", time.Duration(k)*step, got)
		}
		timeout := step
		if k == 8 {
			timeout = interval
		}
		expect(time.Duration(k)*step, timeout)
	}
	for k := 2; k <= 4; k++ {
		for i := 1; i < 8; i++ {
			if got := clk.Advance(step); got != 0 {
				t.Fatalf("sweep between %v and %v after the join window", time.Duration(k-1)*interval, time.Duration(k)*interval)
			}
		}
		if got := clk.Advance(step); got != 1 {
			t.Fatalf("advancing to %v delivered %d ticks, want 1", time.Duration(k)*interval, got)
		}
		expect(time.Duration(k)*interval, interval)
	}
}

// TestMembershipSuspectEvictRecover drives one peer through the whole
// lifecycle on a fake clock — alive, suspect at exactly 3 intervals of
// silence, dead (evicted from the live set) at exactly 6, and alive again
// once it answers — checking the live-set callback fires on each ring
// transition and on nothing else.
func TestMembershipSuspectEvictRecover(t *testing.T) {
	const interval = time.Second
	clk := newFakeClock()
	ping := &fakePing{}
	var changes [][]string // sweep calls onChange on the test goroutine
	m := newMembership(membershipConfig{
		self:     "n1",
		peers:    map[string]string{"n1": "a1", "n2": "a2", "n3": "a3"},
		interval: interval,
		clock:    clk,
		ping:     ping.ping,
		onChange: func(live []string) { changes = append(changes, live) },
	})
	boot := clk.Now()
	sweepAt := func(d time.Duration) {
		clk.Advance(boot.Add(d).Sub(clk.Now()))
		m.sweep(context.Background(), interval)
	}
	check := func(id, want string, wantChanges int) {
		t.Helper()
		if got := stateFor(t, m, id); got != want {
			t.Fatalf("%v after boot: %s is %q, want %q", clk.Now().Sub(boot), id, got, want)
		}
		if len(changes) != wantChanges {
			t.Fatalf("%v after boot: %d live-set changes %v, want %d", clk.Now().Sub(boot), len(changes), changes, wantChanges)
		}
	}

	// Optimistic boot: everyone alive.
	for _, id := range []string{"n1", "n2", "n3"} {
		check(id, "alive", 0)
	}

	// n3 is silent from boot: suspect at 3 intervals, still in the live
	// set (suspicion must not reshuffle the ring)...
	ping.set("a3", true)
	sweepAt(3*interval - time.Nanosecond)
	check("n3", "alive", 0)
	sweepAt(3 * interval)
	check("n3", "suspect", 0)
	sweepAt(6*interval - time.Nanosecond)
	check("n3", "suspect", 0)

	// ...and dead at 6, when the sweep drops it from the live set.
	sweepAt(6 * interval)
	check("n3", "dead", 1)
	if got := changes[0]; !slices.Equal(got, []string{"n1", "n2"}) {
		t.Fatalf("live set after eviction = %v, want [n1 n2]", got)
	}
	if m.isUsable("n3") {
		t.Fatal("dead peer reported usable")
	}
	// n2 answered every sweep.
	if p := peerFor(t, m, "n2"); p.State != "alive" || !p.LastSeen.Equal(clk.Now()) {
		t.Fatalf("answering peer n2 = %+v, want alive and seen at the last sweep", p)
	}

	// Recovery: one successful heartbeat brings it straight back.
	ping.set("a3", false)
	sweepAt(7 * interval)
	check("n3", "alive", 2)
	if got := changes[1]; len(got) != 3 {
		t.Fatalf("live set after recovery = %v, want all 3", got)
	}
}

// TestMembershipReportFailure pins the fast path on a fake clock: a hard
// connection failure ages the peer straight to suspect without waiting
// for heartbeat silence, but eviction still waits out the rest of the
// window, and a repeated report does not restart it.
func TestMembershipReportFailure(t *testing.T) {
	const interval = time.Second
	clk := newFakeClock()
	m := newMembership(membershipConfig{
		self:     "n1",
		peers:    map[string]string{"n1": "a1", "n2": "a2"},
		interval: interval,
		clock:    clk,
		ping:     (&fakePing{}).ping,
	})
	clk.Advance(interval / 2)
	if got := stateFor(t, m, "n2"); got != "alive" {
		t.Fatalf("state before reportFailure = %q", got)
	}
	m.reportFailure("n2")
	if got := stateFor(t, m, "n2"); got != "suspect" {
		t.Fatalf("state after reportFailure = %q, want suspect", got)
	}
	if !m.isUsable("n2") {
		t.Fatal("suspect peer must stay usable (eviction owns the hard cut)")
	}
	clk.Advance(interval)
	m.reportFailure("n2")
	clk.Advance(2*interval - time.Nanosecond)
	if got := stateFor(t, m, "n2"); got != "suspect" {
		t.Fatalf("state 3 intervals after the report, less 1ns = %q, want suspect", got)
	}
	clk.Advance(time.Nanosecond)
	if got := stateFor(t, m, "n2"); got != "dead" {
		t.Fatalf("state 3 intervals after the report = %q, want dead", got)
	}
	// Self is immune.
	m.reportFailure("n1")
	if got := stateFor(t, m, "n1"); got != "alive" {
		t.Fatalf("self state after reportFailure = %q", got)
	}
}

// TestMembershipWrongPeerIDIsSilence pins the node's heartbeat identity
// check: a ping answered by a different node id (a stale -peers entry,
// or a port another node took over) does not keep the configured peer
// alive, and the node logs it.
func TestMembershipWrongPeerIDIsSilence(t *testing.T) {
	answerAs := func(id string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(PingReply{ID: id})
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	right, wrong := answerAs("b"), answerAs("x")
	mgr := service.New(service.Config{Workers: 1})
	t.Cleanup(func() { _ = mgr.Close(context.Background()) })

	var mu sync.Mutex
	var logs []string
	clk := newFakeClock()
	n, err := newNode(Config{
		Self: "a",
		Peers: map[string]string{
			"a": "127.0.0.1:1",
			"b": strings.TrimPrefix(right.URL, "http://"),
			"c": strings.TrimPrefix(wrong.URL, "http://"),
		},
		Manager:           mgr,
		HeartbeatInterval: time.Second,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, format)
		},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	n.mem.sweep(context.Background(), time.Second)

	if got := stateFor(t, n.mem, "b"); got != "alive" {
		t.Fatalf("peer answering with its own id is %q, want alive", got)
	}
	if got := stateFor(t, n.mem, "c"); got != "suspect" {
		t.Fatalf("peer whose address answers as another node is %q, want suspect", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "answered as") }) {
		t.Fatalf("no log line for the wrong id: %q", logs)
	}
}
