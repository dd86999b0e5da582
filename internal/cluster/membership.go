package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// PeerState is a peer's health as seen from this node.
type PeerState int

const (
	// PeerAlive means heartbeats are arriving.
	PeerAlive PeerState = iota
	// PeerSuspect means heartbeats stopped recently; the peer keeps its
	// ring ownership through the suspicion window (a GC pause or a
	// dropped packet must not reshuffle the keyspace).
	PeerSuspect
	// PeerDead means the suspicion window expired; the peer is evicted
	// from the ring and its key range reassigned to the successors.
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// PeerInfo is one peer's snapshot for introspection.
type PeerInfo struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	State    string    `json:"state"`
	Draining bool      `json:"draining,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// pingFunc probes the peer configured as id at addr, reporting whether
// that peer answered and whether it is draining. Injected by Node so
// Membership needs no HTTP knowledge of its own.
type pingFunc func(ctx context.Context, id, addr string) (draining bool, err error)

// membershipConfig tunes the failure detector.
type membershipConfig struct {
	self     string
	peers    map[string]string // id → addr, self included
	interval time.Duration     // heartbeat period
	suspect  time.Duration     // silence before Suspect
	evict    time.Duration     // silence before Dead (ring eviction)
	ping     pingFunc
	clock    clock
	// onChange runs after every sweep that changed the live set (the
	// ring members: every peer not Dead), with the new set sorted.
	onChange func(live []string)
}

func (c membershipConfig) withDefaults() membershipConfig {
	if c.interval <= 0 {
		c.interval = time.Second
	}
	if c.suspect <= 0 {
		c.suspect = 3 * c.interval
	}
	if c.evict <= c.suspect {
		c.evict = 2 * c.suspect
	}
	return c
}

// membership is the failure detector: it heartbeats every peer on a
// timer, derives Alive/Suspect/Dead from heartbeat silence, and reports
// live-set changes so the ring can be rebuilt. Self is always alive.
type membership struct {
	cfg membershipConfig

	mu    sync.Mutex
	peers map[string]*peerHealth // guarded by mu
	live  map[string]bool        // last live set reported through onChange; guarded by mu

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

type peerHealth struct {
	addr     string
	lastSeen time.Time
	draining bool
}

// newMembership builds the detector with every configured peer
// optimistically alive — a cluster booting in any order must not evict
// nodes that simply have not been probed yet.
func newMembership(cfg membershipConfig) *membership {
	cfg = cfg.withDefaults()
	m := &membership{
		cfg:   cfg,
		peers: make(map[string]*peerHealth, len(cfg.peers)),
		live:  make(map[string]bool, len(cfg.peers)),
	}
	now := m.cfg.clock.Now()
	for id, addr := range cfg.peers {
		m.peers[id] = &peerHealth{addr: addr, lastSeen: now}
		m.live[id] = true
	}
	return m
}

// joinSweeps is how many sweeps the join window packs into the first
// interval after start.
const joinSweeps = 8

// start launches the heartbeat loop. It sweeps at once, then every
// interval/8 until one interval has passed (the join window), then every
// interval; each probe times out at the cadence it runs at. A peer that
// binds its listener after the first sweep is heard within interval/8,
// so a cluster booted together converges in an eighth of an interval
// whatever its boot order, and the steady probe rate is unchanged.
func (m *membership) start() {
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		step := max(m.cfg.interval/joinSweeps, 1)
		begin := m.cfg.clock.Now()
		ticker := m.cfg.clock.NewTicker(step)
		defer ticker.Stop()
		for {
			m.sweep(ctx, step)
			select {
			case <-ctx.Done():
				return
			case <-ticker.C():
			}
			if step < m.cfg.interval && m.cfg.clock.Now().Sub(begin) >= m.cfg.interval {
				step = m.cfg.interval
				ticker.Reset(step)
			}
		}
	}()
}

// stop halts the loop and waits for it.
func (m *membership) stop() {
	if m.cancel != nil {
		m.cancel()
	}
	m.wg.Wait()
}

// sweep heartbeats every peer concurrently, each probe timing out after
// timeout, then re-derives the live set and fires onChange if it moved.
func (m *membership) sweep(ctx context.Context, timeout time.Duration) {
	m.mu.Lock()
	type probe struct{ id, addr string }
	probes := make([]probe, 0, len(m.peers))
	now := m.cfg.clock.Now()
	for id, p := range m.peers {
		if id == m.cfg.self {
			p.lastSeen = now
			continue
		}
		probes = append(probes, probe{id, p.addr})
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	for _, pr := range probes {
		wg.Add(1)
		go func(pr probe) {
			defer wg.Done()
			pctx, cancel := context.WithDeadline(ctx, now.Add(timeout))
			defer cancel()
			draining, err := m.cfg.ping(pctx, pr.id, pr.addr)
			if err != nil {
				return // silence is the signal; lastSeen just ages
			}
			m.mu.Lock()
			if p := m.peers[pr.id]; p != nil {
				p.lastSeen = m.cfg.clock.Now()
				p.draining = draining
			}
			m.mu.Unlock()
		}(pr)
	}
	wg.Wait()
	m.publish()
}

// reportFailure ages a peer straight past the suspicion threshold — the
// proxy path calls it on a hard connection failure so routing reacts
// faster than the next heartbeat round. Eviction still waits the full
// window.
func (m *membership) reportFailure(id string) {
	m.mu.Lock()
	if p := m.peers[id]; p != nil && id != m.cfg.self {
		if aged := m.cfg.clock.Now().Add(-m.cfg.suspect); p.lastSeen.After(aged) {
			p.lastSeen = aged
		}
	}
	m.mu.Unlock()
	m.publish()
}

// stateOf derives a peer's state from heartbeat silence.
func (m *membership) stateOf(p *peerHealth, now time.Time) PeerState {
	silence := now.Sub(p.lastSeen)
	switch {
	case silence >= m.cfg.evict:
		return PeerDead
	case silence >= m.cfg.suspect:
		return PeerSuspect
	default:
		return PeerAlive
	}
}

// publish recomputes the live set (everything not Dead) and fires
// onChange when it differs from the last published set.
func (m *membership) publish() {
	m.mu.Lock()
	now := m.cfg.clock.Now()
	live := make([]string, 0, len(m.peers))
	changed := false
	seen := make(map[string]bool, len(m.peers))
	for id, p := range m.peers {
		alive := id == m.cfg.self || m.stateOf(p, now) != PeerDead
		seen[id] = alive
		if alive {
			live = append(live, id)
		}
		if m.live[id] != alive {
			changed = true
		}
	}
	if changed {
		m.live = seen
	}
	cb := m.cfg.onChange
	m.mu.Unlock()
	if changed && cb != nil {
		sort.Strings(live)
		cb(live)
	}
}

// snapshot returns every peer's info, sorted by id.
func (m *membership) snapshot() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.clock.Now()
	out := make([]PeerInfo, 0, len(m.peers))
	for id, p := range m.peers {
		state := PeerAlive
		if id != m.cfg.self {
			state = m.stateOf(p, now)
		}
		out = append(out, PeerInfo{
			ID:       id,
			Addr:     p.addr,
			State:    state.String(),
			Draining: p.draining,
			LastSeen: p.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// isUsable reports whether a peer is a viable target for proxy or steal
// calls: known, not Dead, and not draining.
func (m *membership) isUsable(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return false
	}
	if id == m.cfg.self {
		return true
	}
	return m.stateOf(p, m.cfg.clock.Now()) != PeerDead && !p.draining
}
