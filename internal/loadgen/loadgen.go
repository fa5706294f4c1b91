package loadgen

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Clock abstracts time so the runner and pacer are testable with a
// deterministic fake; RealClock is the wall clock.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// pacer schedules open-loop arrivals at a fixed interval. Arrival times
// advance by the interval regardless of how long operations take, and the
// caller measures latency from the INTENDED start, so time an operation
// spends queued behind a slow predecessor is charged to it — the standard
// correction for coordinated omission.
type pacer struct {
	interval time.Duration
	next     time.Time
}

// sleepMargin is how close to an arrival the pacer stops sleeping and spins:
// time.Sleep wakes about half a millisecond late, which would otherwise be
// most of the latency an open-loop cell reports.
const sleepMargin = time.Millisecond

// wait blocks until the next scheduled arrival (not at all when behind
// schedule) and returns the intended start time. It sleeps only while the
// arrival is more than sleepMargin away and spins the rest without
// yielding: a spinner that calls runtime.Gosched sits on the global run
// queue, so its P never polls the network, and with the other P busy (a GC
// mark worker, say) every in-flight request waits for sysmon's 10 ms poll.
func (p *pacer) wait(c Clock) time.Time {
	intended := p.next
	p.next = p.next.Add(p.interval)
	for {
		d := intended.Sub(c.Now())
		switch {
		case d <= 0:
			return intended
		case d > sleepMargin:
			c.Sleep(d - sleepMargin)
		}
	}
}

// Outcome classifies one operation's result for the counters.
type Outcome int

// Operation outcomes.
const (
	// OK is a successful operation; its latency is recorded.
	OK Outcome = iota
	// Error is a failed operation; counted, latency not recorded.
	Error
	// Shed is an operation rejected by admission control (e.g. a 503 from
	// acserverd); counted separately so overload is visible as shed rate.
	Shed
)

// Config tunes one Run.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// Duration is the measured steady-state window (required, > 0).
	Duration time.Duration
	// Warmup runs before the window; its operations are not recorded.
	Warmup time.Duration
	// Rate is the total target arrival rate in operations/second across
	// all workers; 0 selects closed-loop mode (issue as fast as
	// completions allow).
	Rate float64
	// Clock substitutes a fake clock in tests (default RealClock).
	Clock Clock
	// Classify maps an operation error to an Outcome (default: any
	// non-nil error is Error).
	Classify func(error) Outcome
}

// Result aggregates one Run. Latency quantiles come from Hist.
type Result struct {
	// Ops counts successful operations in the measured window; Errors and
	// Shed count failed and load-shed ones.
	Ops, Errors, Shed uint64
	// Elapsed is the actual measured window (slightly over Duration when
	// final operations straggle).
	Elapsed time.Duration
	// Hist holds the successful operations' latencies.
	Hist *Histogram
}

// Throughput returns successful operations per second over the window.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Run drives job from a worker pool per cfg and aggregates the outcome.
// job receives the worker index so callers can keep per-worker state
// (generators, rule stacks) without locking; it must return the
// operation's error (nil for success). Run returns when the measured
// window has elapsed or ctx is cancelled.
func Run(ctx context.Context, cfg Config, job func(ctx context.Context, worker int) error) Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock()
	}
	classify := cfg.Classify
	if classify == nil {
		classify = func(err error) Outcome {
			if err != nil {
				return Error
			}
			return OK
		}
	}

	start := clock.Now()
	measureStart := start.Add(cfg.Warmup)
	end := measureStart.Add(cfg.Duration)

	type workerResult struct {
		hist           Histogram
		ok, errs, shed uint64
	}
	results := make([]*workerResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		res := &workerResult{}
		results[i] = res
		var p *pacer
		if cfg.Rate > 0 {
			interval := time.Duration(float64(workers) / cfg.Rate * float64(time.Second))
			if interval <= 0 {
				interval = time.Nanosecond
			}
			// Stagger workers across one interval so aggregate arrivals
			// are evenly spaced, not synchronized bursts.
			p = &pacer{interval: interval, next: start.Add(interval * time.Duration(i) / time.Duration(workers))}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				var t0 time.Time
				if p != nil {
					if !p.next.Before(end) {
						return
					}
					t0 = p.wait(clock)
				} else {
					t0 = clock.Now()
					if !t0.Before(end) {
						return
					}
				}
				err := job(ctx, i)
				done := clock.Now()
				if done.Before(measureStart) {
					continue // warmup
				}
				switch classify(err) {
				case OK:
					res.hist.Record(done.Sub(t0))
					res.ok++
				case Shed:
					res.shed++
				default:
					res.errs++
				}
			}
		}(i)
	}
	wg.Wait()

	out := Result{Hist: &Histogram{}}
	for _, res := range results {
		out.Ops += res.ok
		out.Errors += res.errs
		out.Shed += res.shed
		out.Hist.Merge(&res.hist)
	}
	// The window is measured, not assumed: straggling final operations
	// extend it, and a ctx cancellation shortens it, so Throughput stays
	// honest either way.
	out.Elapsed = clock.Now().Sub(measureStart)
	if out.Elapsed < 0 {
		out.Elapsed = 0
	}
	return out
}
