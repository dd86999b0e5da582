package cluster

import "time"

// clock is the package's one source of wall time: the failure
// detector's sweep schedule and silence ages, the steal loop's pacing
// and the node's start stamp all read it. Production runs on wallClock;
// the package tests install a fake that advances virtual time, so the
// detector's schedule is pinned without sleeping.
type clock interface {
	Now() time.Time
	NewTicker(d time.Duration) ticker
}

// ticker is the part of a *time.Ticker the loops use.
type ticker interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop()
}

// wallClock is the real clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTicker(d time.Duration) ticker { return wallTicker{time.NewTicker(d)} }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time   { return w.t.C }
func (w wallTicker) Reset(d time.Duration) { w.t.Reset(d) }
func (w wallTicker) Stop()                 { w.t.Stop() }
