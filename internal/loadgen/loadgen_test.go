package loadgen

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic clock: Sleep advances it instantly, and
// jobs advance it explicitly to model operation cost. Reads are free, so
// operation costs stay exact, except before spinUntil: there each read
// advances the clock by spinTick after returning, modelling a caller that
// spins. Sleep moves spinUntil to sleepMargin past its wake-up, the stretch
// the pacer spins out.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	spinUntil time.Time
	last      time.Time       // what Now last returned
	sleeps    []time.Duration // every Sleep's argument
}

const spinTick = time.Microsecond

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = c.now
	if c.now.Before(c.spinUntil) {
		c.now = c.now.Add(spinTick)
	}
	return c.last
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	if wake := c.now.Add(sleepMargin); wake.After(c.spinUntil) {
		c.spinUntil = wake
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestRunClosedLoopDeterministic drives one worker with a fake clock: a
// 5ms operation over a 100ms window after 20ms warmup must record exactly
// 21 operations (completions at 20ms..120ms inclusive), all at exactly
// 5ms.
func TestRunClosedLoopDeterministic(t *testing.T) {
	clock := &fakeClock{}
	const opCost = 5 * time.Millisecond
	res := Run(context.Background(), Config{
		Workers:  1,
		Warmup:   20 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Clock:    clock,
	}, func(ctx context.Context, worker int) error {
		clock.advance(opCost)
		return nil
	})
	if res.Ops != 21 {
		t.Fatalf("ops = %d, want 21", res.Ops)
	}
	if res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("unexpected errors=%d shed=%d", res.Errors, res.Shed)
	}
	if got := res.Hist.Max(); got < opCost || got > opCost+opCost>>subBits {
		t.Fatalf("max latency %v, want ~%v", got, opCost)
	}
	if res.Hist.Min() != res.Hist.Max() {
		t.Fatalf("constant-cost ops should land in one bucket: min %v max %v", res.Hist.Min(), res.Hist.Max())
	}
	if res.Elapsed != 100*time.Millisecond {
		t.Fatalf("elapsed = %v, want 100ms", res.Elapsed)
	}
	if tput := res.Throughput(); tput < 209 || tput > 211 {
		t.Fatalf("throughput = %v, want ~210", tput)
	}
}

// TestRunOpenLoopPacing paces one worker at 100 ops/s with free
// operations: exactly one op per 10ms slot lands in a 1s window, and the
// recorded latency is the (zero) service time.
func TestRunOpenLoopPacing(t *testing.T) {
	clock := &fakeClock{}
	res := Run(context.Background(), Config{
		Workers:  1,
		Duration: time.Second,
		Rate:     100,
		Clock:    clock,
	}, func(ctx context.Context, worker int) error { return nil })
	if res.Ops != 100 {
		t.Fatalf("ops = %d, want 100", res.Ops)
	}
	if res.Hist.Max() != 0 {
		t.Fatalf("zero-cost paced ops should record zero latency, got max %v", res.Hist.Max())
	}
}

// TestRunOpenLoopCoordinatedOmission checks that a stalled operation
// charges the queueing delay to the operations scheduled behind it:
// latency is measured from the intended arrival, not the actual start.
func TestRunOpenLoopCoordinatedOmission(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	res := Run(context.Background(), Config{
		Workers:  1,
		Duration: 100 * time.Millisecond,
		Rate:     100, // one op per 10ms
		Clock:    clock,
	}, func(ctx context.Context, worker int) error {
		calls++
		if calls == 1 {
			clock.advance(50 * time.Millisecond) // stall the first op
		}
		return nil
	})
	if res.Ops != 10 {
		t.Fatalf("ops = %d, want 10", res.Ops)
	}
	// Ops intended at 10,20,30,40ms all start once the stall clears at
	// 50ms: their recorded latencies must reflect 40,30,20,10ms of queueing.
	if got := res.Hist.Quantile(0.95); got < 50*time.Millisecond || got > 52*time.Millisecond {
		t.Fatalf("p95 = %v, want ~50ms (the stalled op)", got)
	}
	if got := res.Hist.Quantile(0.5); got == 0 {
		t.Fatal("median should show queueing delay behind the stall")
	}
}

func TestPacerCatchUp(t *testing.T) {
	clock := &fakeClock{}
	p := &pacer{interval: 10 * time.Millisecond, next: clock.Now()}
	if got := p.wait(clock); !got.Equal(time.Time{}.Add(0)) {
		t.Fatalf("first intended start = %v", got)
	}
	// Fall 35ms behind: the next three waits must fire immediately with
	// intended times 10,20,30ms, then resume sleeping.
	clock.advance(35 * time.Millisecond)
	for i, want := range []time.Duration{10, 20, 30} {
		before := clock.Now()
		got := p.wait(clock)
		if clock.Now() != before {
			t.Fatalf("wait %d slept while behind schedule", i)
		}
		if got.Sub(time.Time{}) != want*time.Millisecond {
			t.Fatalf("wait %d intended = %v, want %v", i, got.Sub(time.Time{}), want*time.Millisecond)
		}
	}
	got := p.wait(clock)
	if got.Sub(time.Time{}) != 40*time.Millisecond || clock.Now().Sub(time.Time{}) != 40*time.Millisecond {
		t.Fatalf("caught-up wait should sleep to 40ms: intended %v now %v", got.Sub(time.Time{}), clock.Now().Sub(time.Time{}))
	}
}

func TestRunClassification(t *testing.T) {
	clock := &fakeClock{}
	errShed := errors.New("shed")
	errBoom := errors.New("boom")
	i := 0
	res := Run(context.Background(), Config{
		Workers:  1,
		Duration: 90 * time.Millisecond,
		Clock:    clock,
		Classify: func(err error) Outcome {
			switch err {
			case nil:
				return OK
			case errShed:
				return Shed
			default:
				return Error
			}
		},
	}, func(ctx context.Context, worker int) error {
		clock.advance(10 * time.Millisecond)
		i++
		switch i % 3 {
		case 0:
			return errBoom
		case 1:
			return errShed
		default:
			return nil
		}
	})
	if res.Ops != 3 || res.Errors != 3 || res.Shed != 3 {
		t.Fatalf("ops/errors/shed = %d/%d/%d, want 3/3/3", res.Ops, res.Errors, res.Shed)
	}
	if res.Hist.Count() != 3 {
		t.Fatalf("only successful ops should be timed, got %d", res.Hist.Count())
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clock := &fakeClock{}
	n := 0
	res := Run(ctx, Config{Workers: 1, Duration: time.Hour, Clock: clock},
		func(ctx context.Context, worker int) error {
			clock.advance(time.Millisecond)
			if n++; n == 5 {
				cancel()
			}
			return nil
		})
	if res.Ops != 5 {
		t.Fatalf("ops = %d, want 5 (cancelled)", res.Ops)
	}
	if res.Elapsed != 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want 5ms", res.Elapsed)
	}
}

// TestRunRealClockSmoke exercises the wall-clock default path with
// multiple workers, loosely.
func TestRunRealClockSmoke(t *testing.T) {
	res := Run(context.Background(), Config{
		Workers:  4,
		Warmup:   5 * time.Millisecond,
		Duration: 40 * time.Millisecond,
	}, func(ctx context.Context, worker int) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Hist.Quantile(0.5) < 200*time.Microsecond {
		t.Fatalf("median %v below the operation's sleep", res.Hist.Quantile(0.5))
	}
}

// TestPacerSpinsOutMargin checks the pacer's wait against arrivals at
// several distances: it sleeps once, to sleepMargin short of an arrival
// further away than that, never for a nearer one, and spins out the rest,
// returning at the arrival, neither a read early nor a read late.
func TestPacerSpinsOutMargin(t *testing.T) {
	for _, lead := range []time.Duration{0, sleepMargin / 2, sleepMargin, sleepMargin + spinTick, 7 * time.Millisecond} {
		clock := &fakeClock{}
		due := clock.now.Add(lead)
		// The spin's reads advance the clock up to the arrival.
		clock.spinUntil = due
		p := &pacer{interval: time.Second, next: due}
		if got := p.wait(clock); !got.Equal(due) {
			t.Fatalf("lead %v: intended %v, want %v", lead, got, due)
		}
		if !clock.last.Equal(due) {
			t.Fatalf("lead %v: returned on a read of %v, %v from the arrival", lead, clock.last, clock.last.Sub(due))
		}
		var want []time.Duration
		if lead > sleepMargin {
			want = []time.Duration{lead - sleepMargin}
		}
		if !slices.Equal(clock.sleeps, want) {
			t.Fatalf("lead %v: slept %v, want %v", lead, clock.sleeps, want)
		}
	}
}
