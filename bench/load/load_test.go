package load

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a transaction takes time.
// Every sleep overshoots by oversleep.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
	slept     []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d + c.oversleep)
}

const ms = time.Millisecond

func TestPacedScheduleAndDueTimeLatency(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	service := []time.Duration{3 * ms, ms / 10, ms / 10, ms / 10, ms / 10}
	n := 0
	r := pacedCaller(clock, clock.Now(), 5*ms, 1000, 1, 0, func(int) bool {
		clock.t = clock.t.Add(service[n])
		n++
		return true
	})
	// Due at 0,1,2,3,4 ms. The first reply takes 3 ms, so requests 2 and 3
	// start 2 ms and 1.1 ms after they were due — queued, and charged from
	// their due times — request 4 starts 0.2 ms late and request 5 on time.
	want := []time.Duration{3 * ms, 2*ms + ms/10, ms + 2*ms/10, 3 * ms / 10, ms / 10}
	if r.sent != 5 || r.queued != 2 || r.late != 0 || r.failed != 0 {
		t.Fatalf("sent=%d queued=%d late=%d failed=%d, want 5 2 0 0", r.sent, r.queued, r.late, r.failed)
	}
	for i, w := range want {
		if time.Duration(r.lat[i]) != w {
			t.Errorf("request %d: latency %v, want %v", i+1, time.Duration(r.lat[i]), w)
		}
	}
	// It slept exactly once: until request 5 fell due.
	if len(clock.slept) != 1 || clock.slept[0] != 4*ms-(3*ms+3*ms/10) {
		t.Errorf("sleeps %v, want one of 0.7ms", clock.slept)
	}
}

func TestPacedBlamesGeneratorForOversleep(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), oversleep: 3 * ms / 2}
	r := pacedCaller(clock, clock.Now(), 20*ms, 100, 1, 0, func(int) bool { return true })
	// Due at 0 and 10 ms; the second send is slept for and starts 1.5 ms late.
	if r.sent != 2 || r.late != 1 || r.queued != 0 {
		t.Fatalf("sent=%d late=%d queued=%d, want 2 1 0", r.sent, r.late, r.queued)
	}
	if got := time.Duration(r.lat[1]); got != 3*ms/2 {
		t.Errorf("the overslept request's latency is %v, want 1.5ms from its due time", got)
	}
}

func TestPacedInterleavesCallersAndCountsFailures(t *testing.T) {
	// Caller 1 of 2 at 1000/s for 6 ms owns requests 1, 3, 5: due at 1, 3, 5 ms.
	clock := &fakeClock{t: time.Unix(0, 0)}
	var started []time.Duration
	r := pacedCaller(clock, clock.Now(), 6*ms, 1000, 2, 1, func(int) bool {
		started = append(started, clock.t.Sub(time.Unix(0, 0)))
		return len(started) != 2
	})
	if len(started) != 3 || started[0] != ms || started[1] != 3*ms || started[2] != 5*ms {
		t.Errorf("caller 1 started at %v, want 1ms 3ms 5ms", started)
	}
	if r.sent != 3 || r.failed != 1 || len(r.lat) != 2 {
		t.Errorf("sent=%d failed=%d latencies=%d, want 3 1 2", r.sent, r.failed, len(r.lat))
	}
}

func TestClosedRunsUntilDeadline(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	win := Closed(clock, 1, 10*ms, func(int) bool {
		clock.t = clock.t.Add(3 * ms)
		return true
	})
	// Sends at 0, 3, 6, 9 ms; the last completes past the deadline and counts.
	if win.Sent != 4 || len(win.Lat) != 4 || win.Elapsed != 12*ms {
		t.Errorf("sent=%d latencies=%d elapsed=%v, want 4 4 12ms", win.Sent, len(win.Lat), win.Elapsed)
	}
}
