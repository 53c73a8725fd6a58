// Package load generates the benchmark's traffic: a closed loop (each
// caller waits for its reply before sending again, so a slow system
// receives less load) and a paced open loop (requests are due on a fixed
// schedule whatever the system does, and each is timed from the instant it
// was due, so a stall is charged to every request it delays).
package load

import (
	"sync"
	"syscall"
	"time"
)

// Clock is the time source of the paced scheduler; tests substitute a fake.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock with nanosleep(2) rather than time.Sleep: an idle
// Go runtime waits for its next timer in epoll_wait, whose timeout is in
// whole milliseconds, so time.Sleep wakes up to a millisecond late — as
// long as the latencies the paced loop is there to measure.
func (Real) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// LateAfter is how long after its due time a send may start before the
// generator, not the system, is blamed for the delay.
const LateAfter = time.Millisecond

// Txn runs one logical transaction on caller w and reports whether it
// committed.
type Txn func(w int) bool

// Window is what one measurement window produced.
type Window struct {
	// Lat holds one latency per committed transaction, in nanoseconds:
	// send→ack in a closed loop, due→ack in a paced one.
	Lat []int64
	// Failed counts transactions that did not commit.
	Failed int
	// Sent counts transactions started. Of a paced window's sends that
	// began more than LateAfter past their due time, Late counts those the
	// generator overslept — the caller was idle and woke late — and Queued
	// those whose caller was still waiting for its previous reply: the
	// backlog an open loop is there to show.
	Sent, Late, Queued int
	// Elapsed is first send to last ack.
	Elapsed time.Duration
}

// callerResult is one caller's share of a Window.
type callerResult struct {
	lat                        []int64
	failed, sent, late, queued int
}

// fanOut runs body on `callers` goroutines and merges their results.
func fanOut(clock Clock, callers int, body func(w int) callerResult) Window {
	results := make([]callerResult, callers)
	start := clock.Now()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = body(w)
		}(w)
	}
	wg.Wait()
	win := Window{Elapsed: clock.Now().Sub(start)}
	for _, r := range results {
		win.Lat = append(win.Lat, r.lat...)
		win.Failed += r.failed
		win.Sent += r.sent
		win.Late += r.late
		win.Queued += r.queued
	}
	return win
}

// Closed runs `callers` goroutines that each send transactions back to
// back for d; a transaction in flight at the deadline completes and counts.
func Closed(clock Clock, callers int, d time.Duration, txn Txn) Window {
	return fanOut(clock, callers, func(w int) callerResult {
		var r callerResult
		deadline := clock.Now().Add(d)
		for {
			t0 := clock.Now()
			if !t0.Before(deadline) {
				return r
			}
			r.sent++
			if txn(w) {
				r.lat = append(r.lat, int64(clock.Now().Sub(t0)))
			} else {
				r.failed++
			}
		}
	})
}

// Paced sends `rate` transactions per second for d, interleaved over
// `callers` goroutines: request i is due at start + i/rate and belongs to
// caller i mod callers. A caller that is still waiting for a reply when
// its next request falls due sends it as soon as it can; the request is
// timed from its due time all the same.
func Paced(clock Clock, callers int, d time.Duration, rate int, txn Txn) Window {
	start := clock.Now()
	return fanOut(clock, callers, func(w int) callerResult {
		return pacedCaller(clock, start, d, rate, callers, w, txn)
	})
}

// pacedCaller is one caller's sequential share of a paced window (its own
// function so the schedule can be tested against a fake clock).
func pacedCaller(clock Clock, start time.Time, d time.Duration, rate, callers, w int, txn Txn) callerResult {
	var r callerResult
	for i := w; ; i += callers {
		offset := time.Duration(float64(i) * float64(time.Second) / float64(rate))
		if offset >= d {
			return r
		}
		due := start.Add(offset)
		now := clock.Now()
		if now.Before(due) {
			clock.Sleep(due.Sub(now))
			if clock.Now().Sub(due) > LateAfter {
				r.late++
			}
		} else if now.Sub(due) > LateAfter {
			r.queued++
		}
		r.sent++
		if txn(w) {
			r.lat = append(r.lat, int64(clock.Now().Sub(due)))
		} else {
			r.failed++
		}
	}
}
