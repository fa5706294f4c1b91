package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reachac/internal/httpapi"
)

// Span names. The first three nest inside one request; reachac.call is the
// embedded workloads' only outside boundary.
const (
	spanClientCall   = "client.call"
	spanRoundTrip    = "loopback.roundtrip"
	spanHandlerCheck = "server.handler.check"
	spanHandlerBatch = "server.handler.batch"
	spanHandlerWrite = "server.handler.write"
	spanLibraryCall  = "reachac.call"
)

// opHeader carries the operation ID from the client side of the loopback to
// the handler side, so the spans of one request share it.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the recorder was created; parent is the name of the enclosing span of the
// same operation, empty at the top.
type span struct {
	name, parent string
	op           uint64
	start, stop  int64
	rec          *recorder
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ops   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type opKey struct{}

// begin opens a top-level span for a new operation and returns a context
// carrying the operation's ID for the layers below.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, *span) {
	id := r.ops.Add(1)
	return context.WithValue(ctx, opKey{}, id), r.child(name, "", id)
}

func (r *recorder) child(name, parent string, op uint64) *span {
	return &span{name: name, parent: parent, op: op, start: int64(time.Since(r.epoch)), rec: r}
}

// end closes the span at t and hands it to the recorder; a nil span (tracing
// off) is a no-op.
func (s *span) end(t time.Time) {
	if s == nil {
		return
	}
	s.stop = int64(t.Sub(s.rec.epoch))
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, *s)
	s.rec.mu.Unlock()
}

func callSpan(w *workloadSpec) string {
	if w.http {
		return spanClientCall
	}
	return spanLibraryCall
}

// tracedTransport is the client side of the loopback boundary: net/http's
// client machinery, TCP both ways and net/http's server machinery all lie
// between its span and the handler's. The span ends when the response
// headers arrive; reading the (already buffered) body is client time.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(opKey{}).(uint64)
	if id == 0 {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	sp := t.rec.child(spanRoundTrip, spanClientCall, id)
	resp, err := t.next.RoundTrip(req)
	sp.end(time.Now())
	return resp, err
}

// tracedHandler is the server side of the loopback boundary, around
// (*server.Server).ServeHTTP.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	name := spanHandlerWrite
	switch r.URL.Path {
	case httpapi.PathCheck:
		name = spanHandlerCheck
	case httpapi.PathCheckBatch:
		name = spanHandlerBatch
	}
	sp := h.rec.child(name, spanRoundTrip, id)
	h.next.ServeHTTP(w, r)
	sp.end(time.Now())
}

// spanTimes returns, per span name, every span's duration and its self time
// in microseconds. Self time is the duration minus the durations of the
// span's direct children: the spans of the same operation that name it as
// parent.
func spanTimes(spans []span) (total, self map[string][]float64) {
	type key struct {
		op   uint64
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.parent != "" {
			children[key{s.op, s.parent}] += s.stop - s.start
		}
	}
	total, self = make(map[string][]float64), make(map[string][]float64)
	for _, s := range spans {
		d := s.stop - s.start
		total[s.name] = append(total[s.name], float64(d)/1e3)
		self[s.name] = append(self[s.name], float64(d-children[key{s.op, s.name}])/1e3)
	}
	return total, self
}

// flush writes the spans as JSON lines.
func (r *recorder) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%q,\"op_id\":%d}\n",
			s.name, s.start, s.stop, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
