package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

// Admission failures; each wraps the sentinel that gives it its wire form
// (503 + Retry-After).
var (
	errQueueFull = fmt.Errorf("%w: mutation queue is full", httpapi.ErrOverloaded)
	errSaturated = fmt.Errorf("%w: too many concurrent checks", httpapi.ErrOverloaded)
	errDraining  = fmt.Errorf("server shutting down: %w", reachac.ErrClosed)
)

// mutation is one writer's request riding a coalesced commit group.
type mutation struct {
	ctx context.Context
	fn  func(*reachac.Tx) error
	// done receives exactly one value: the request's own outcome, or the
	// whole group's commit error. Buffered so the committer never blocks on
	// a caller that gave up.
	done chan error
}

// coalescer folds concurrent mutation requests into shared Batch commit
// groups. Writers enqueue and block on their result; a single committer
// goroutine drains the queue and commits everything it gathered as ONE
// reachac.Batch — one atomic WAL record group, one fsync — failing each
// request individually via Tx.Sub. Under write pressure the group grows to
// maxBatch and the fsync cost amortizes across the group; an idle server
// degenerates to one group per mutation with no added latency.
type coalescer struct {
	net      *reachac.Network
	queue    chan *mutation
	maxBatch int
	// wait is how long the committer lingers after the first gathered
	// mutation for more to arrive. Zero means drain-only: coalesce whatever
	// is already queued, never delay a commit.
	wait time.Duration

	// mu guards closed so enqueue never races the queue close.
	mu      sync.RWMutex
	closed  bool
	stopped chan struct{}

	groups   atomic.Uint64 // committed groups that applied ≥ 1 mutation
	applied  atomic.Uint64 // mutations acknowledged across all groups
	rejected atomic.Uint64 // queue-full and deadline-expired rejections
}

func newCoalescer(n *reachac.Network, queueCap, maxBatch int, wait time.Duration) *coalescer {
	c := &coalescer{
		net:      n,
		queue:    make(chan *mutation, queueCap),
		maxBatch: maxBatch,
		wait:     wait,
		stopped:  make(chan struct{}),
	}
	go c.run()
	return c
}

// enqueue submits one mutation and blocks until its group commits (or the
// queue refuses it). A full queue rejects immediately — the caller answers
// 503 with Retry-After rather than holding the connection — and a request
// whose context expires while queued is abandoned: the committer skips
// expired mutations, so an unacknowledged request is at most *uncertainly*
// applied (the usual fate of a timed-out write), never silently acknowledged.
func (c *coalescer) enqueue(ctx context.Context, fn func(*reachac.Tx) error) error {
	m := &mutation{ctx: ctx, fn: fn, done: make(chan error, 1)}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return errDraining
	}
	select {
	case c.queue <- m:
		c.mu.RUnlock()
	default:
		c.mu.RUnlock()
		c.rejected.Add(1)
		return errQueueFull
	}
	select {
	case err := <-m.done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("server: request abandoned before commit: %w", ctx.Err())
	}
}

// run is the committer loop: gather a group, commit it, repeat until the
// queue is closed and drained.
func (c *coalescer) run() {
	defer close(c.stopped)
	for m := range c.queue {
		c.commit(c.gather(m))
	}
}

// gather collects up to maxBatch mutations for one commit group: everything
// already queued, plus — when a coalesce window is configured — whatever
// else arrives within it.
func (c *coalescer) gather(first *mutation) []*mutation {
	batch := []*mutation{first}
	if c.wait <= 0 {
		for len(batch) < c.maxBatch {
			select {
			case m, ok := <-c.queue:
				if !ok {
					return batch
				}
				batch = append(batch, m)
			default:
				return batch
			}
		}
		return batch
	}
	t := time.NewTimer(c.wait)
	defer t.Stop()
	for len(batch) < c.maxBatch {
		select {
		case m, ok := <-c.queue:
			if !ok {
				return batch
			}
			batch = append(batch, m)
		case <-t.C:
			return batch
		}
	}
	return batch
}

// commit applies one gathered group as a single Batch. Each mutation runs as
// a sub-transaction: its own failure rolls back only its effects and is
// reported only to it, while a commit (WAL) failure fails the whole group —
// nothing in it was acknowledged.
func (c *coalescer) commit(batch []*mutation) {
	errs := make([]error, len(batch))
	commitErr := c.net.Batch(func(tx *reachac.Tx) error {
		for i, m := range batch {
			if err := m.ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("server: deadline expired before commit: %w", err)
				c.rejected.Add(1)
				continue
			}
			errs[i] = tx.Sub(m.fn)
		}
		return nil
	})
	applied := 0
	for i, m := range batch {
		if commitErr != nil {
			errs[i] = commitErr
		} else if errs[i] == nil {
			applied++
		}
		m.done <- errs[i]
	}
	if commitErr == nil && applied > 0 {
		c.groups.Add(1)
		c.applied.Add(uint64(applied))
	}
}

// shutdown stops intake, waits for the committer to drain every queued
// mutation (bounded by ctx) and returns. Safe to call more than once.
func (c *coalescer) shutdown(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.queue)
	}
	c.mu.Unlock()
	select {
	case <-c.stopped:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

func (c *coalescer) depth() int { return len(c.queue) }
