package cluster

import (
	"sync"
	"time"
)

// fakeClock is a clock whose time moves only when the test advances it.
// It starts at the real time of its construction, so a probe deadline
// derived from it (virtual now plus a cadence) still lies in the real
// future while the test runs.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*fakeTicker
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Now()} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTicker(d time.Duration) ticker {
	if d <= 0 {
		panic("fakeClock: non-positive ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTicker{clk: c, c: make(chan time.Time, 1), period: d, next: c.now.Add(d), live: true}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves virtual time forward by d, delivering the ticks that
// fall due on the way in time order, and returns how many it delivered.
// Like a time.Ticker, a tick whose channel is still full is dropped.
func (c *fakeClock) Advance(d time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	delivered := 0
	for {
		var due *fakeTicker
		for _, t := range c.tickers {
			if t.live && !t.next.After(end) && (due == nil || t.next.Before(due.next)) {
				due = t
			}
		}
		if due == nil {
			break
		}
		c.now = due.next
		select {
		case due.c <- c.now:
			delivered++
		default:
		}
		due.next = due.next.Add(due.period)
	}
	c.now = end
	return delivered
}

type fakeTicker struct {
	clk *fakeClock
	c   chan time.Time
	// Guarded by clk.mu.
	period time.Duration
	next   time.Time
	live   bool
}

func (t *fakeTicker) C() <-chan time.Time { return t.c }

func (t *fakeTicker) Reset(d time.Duration) {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.period, t.next, t.live = d, t.clk.now.Add(d), true
}

func (t *fakeTicker) Stop() {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.live = false
}
