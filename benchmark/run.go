package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// pacer is an open-loop schedule shared by a phase's workers: the k-th
// request is due at start + k×interval whatever the earlier ones took, and
// whichever worker is free claims it. A stall therefore shows up as latency
// of the requests it delayed instead of silently lowering the rate, and one
// slow request does not make the next ones late as long as another worker
// (connection) is free.
//
// Waiting sleeps only while the due time is further away than sleepMargin
// and spins the rest: on this class of kernel any time.Sleep wakes about half
// a millisecond late, which would be most of the latency being measured. The
// spin does not yield. A spinner that calls runtime.Gosched is always on the
// global run queue, so its P never finds its queues empty and never polls
// the network; whenever the other P is busy (a GC mark worker) every
// in-flight request then waits for sysmon's 10 ms poll. Measured at 6 000
// req/s on two cores: lateness p99 5.0 ms yielding, 0.9 ms spinning. The clock
// is injected so the schedule is testable.
type pacer struct {
	start    time.Time
	interval time.Duration
	claimed  atomic.Int64
	now      func() time.Time
	sleep    func(time.Duration)
}

const sleepMargin = time.Millisecond

func newPacer(start time.Time, rate int) *pacer {
	return &pacer{start: start, interval: time.Second / time.Duration(rate), now: time.Now, sleep: time.Sleep}
}

// claim takes the next request's slot and returns its intended send time.
func (p *pacer) claim() time.Time {
	return p.start.Add(time.Duration(p.claimed.Add(1)-1) * p.interval)
}

// wait blocks until due.
func (p *pacer) wait(due time.Time) {
	for {
		d := due.Sub(p.now())
		switch {
		case d <= 0:
			return
		case d > sleepMargin:
			p.sleep(d - sleepMargin)
		}
	}
}

// phase is one stretch of load against an env.
type phase struct {
	dur   time.Duration // measured length; 0 with ops > 0 runs a fixed count instead
	ops   int           // operations per worker when dur is 0
	rate  int           // open loop at this many requests per second overall; 0 is closed loop
	slice time.Duration // length of the slices medians are taken over (default: see run)
	// gens overrides the env's generators (the no-op self-check's own).
	gens []*generator
	// rec, when set, records a span around every call into the target.
	rec *recorder
}

// sliceStat is what one worker saw in one slice of a phase.
type sliceStat struct {
	ok    uint64
	check hist // opCheck latencies
	write hist // relate, unrelate, share, revoke acknowledgement latencies
}

// phaseResult is what one worker, or after merging the whole phase, saw.
type phaseResult struct {
	attempted, failed uint64
	firstErr          error
	slices            []sliceStat // complete slices only
	sliceS            float64
	late              hist   // actual minus intended send time, paced phases
	limited, missed   uint64 // paced requests subject to the latency limit, and those over it
}

// run drives the phase with one goroutine per worker and returns once all
// have stopped.
func run(e *env, tgt target, p phase) phaseResult {
	if p.slice == 0 {
		// A paced phase has idle time, and a GC cycle or a log rotation hits
		// whichever requests are due while it lasts. With 1-second slices
		// every slice holds a few such events and its p99 is their tail,
		// which swung 2x between runs of one commit; with slices of 600
		// requests (100 ms at 6 000 req/s) most slices hold none, and the
		// median slice is steady. A closed loop has no idle time and its p99
		// is steadier over the larger 1-second sample.
		p.slice = time.Second
		if p.rate > 0 {
			p.slice = 600 * time.Second / time.Duration(p.rate)
		}
	}
	gens := p.gens
	if gens == nil {
		gens = e.gens
	}
	nslices := int(p.dur / p.slice)
	results := make([]phaseResult, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	var pc *pacer
	if p.rate > 0 {
		pc = newPacer(start, p.rate)
	}
	for w := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = runWorker(e, tgt, p, pc, gens[w], w, start, nslices)
		}()
	}
	wg.Wait()

	out := phaseResult{slices: make([]sliceStat, nslices), sliceS: p.slice.Seconds()}
	for i := range results {
		r := &results[i]
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		out.late.merge(&r.late)
		out.limited += r.limited
		out.missed += r.missed
		for s := range r.slices {
			out.slices[s].ok += r.slices[s].ok
			out.slices[s].check.merge(&r.slices[s].check)
			out.slices[s].write.merge(&r.slices[s].write)
		}
	}
	return out
}

func runWorker(e *env, tgt target, p phase, pc *pacer, gen *generator, worker int, start time.Time, nslices int) phaseResult {
	res := phaseResult{slices: make([]sliceStat, nslices)}
	end := start.Add(p.dur)
	limit := time.Duration(e.w.limitUS * float64(time.Microsecond))
	limitWrites := e.w.mix.toggle > 0
	ctx := context.Background()
	for n := 0; ; n++ {
		due := time.Now()
		if pc != nil {
			due = pc.claim()
		}
		if p.dur > 0 && !due.Before(end) || p.dur == 0 && n >= p.ops {
			return res
		}
		o := gen.next()
		if pc != nil {
			pc.wait(due)
			res.late.record(time.Since(due))
		} else {
			due = time.Now()
		}
		opCtx, span := ctx, (*span)(nil)
		if p.rec != nil {
			opCtx, span = p.rec.begin(ctx, callSpan(e.w))
		}
		rule, err := tgt.do(opCtx, worker, &o)
		done := time.Now()
		span.end(done)
		gen.done(&o, rule, err)

		lat := done.Sub(due)
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
		if pc != nil && o.kind != opBatch && o.kind.isWrite() == limitWrites {
			res.limited++
			if err != nil || lat > limit {
				res.missed++
			}
		}
		if s := int(done.Sub(start) / p.slice); err == nil && s < nslices {
			st := &res.slices[s]
			st.ok++
			switch {
			case o.kind == opCheck:
				st.check.record(lat)
			case o.kind.isWrite():
				st.write.record(lat)
			}
		}
	}
}

// summary is the end-to-end view of one phase: every number is the median
// over the phase's complete slices of that slice's value, which is what keeps
// one bad slice (a checkpoint, a neighbour's burst) from deciding a p99.
type summary struct {
	opsPerS            float64
	checkP50, checkP99 float64 // µs
	writeP50, writeP99 float64 // µs
	checks, writes     uint64  // samples behind the latencies
}

func (r *phaseResult) summarize() summary {
	var s summary
	var rates, c50, c99, w50, w99 []float64
	for i := range r.slices {
		st := &r.slices[i]
		rates = append(rates, float64(st.ok)/r.sliceS)
		if st.check.n > 0 {
			c50 = append(c50, st.check.quantile(0.5)/1e3)
			c99 = append(c99, st.check.quantile(0.99)/1e3)
			s.checks += st.check.n
		}
		if st.write.n > 0 {
			w50 = append(w50, st.write.quantile(0.5)/1e3)
			w99 = append(w99, st.write.quantile(0.99)/1e3)
			s.writes += st.write.n
		}
	}
	s.opsPerS = median(rates)
	s.checkP50, s.checkP99 = median(c50), median(c99)
	s.writeP50, s.writeP99 = median(w50), median(w99)
	return s
}
