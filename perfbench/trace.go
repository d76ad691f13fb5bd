package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a call into the program's public API. Spans of one query share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs skip tracing.
type recorder struct {
	t0  time.Time
	ids atomic.Uint64
	// on pauses recording while false.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// spanRef identifies a span across a context or an HTTP header.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

// traceHeader carries a spanRef from a client span to the server-side span
// it causes, across the loopback HTTP hop.
const traceHeader = "X-Bench-Span"

// open starts a span. With parent.trace == 0 the span starts a new trace.
// The returned function ends it.
func (r *recorder) open(parent spanRef, name string) (spanRef, func()) {
	if r == nil || !r.on.Load() {
		return spanRef{}, func() {}
	}
	id := r.ids.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	start := time.Since(r.t0)
	return spanRef{trace, id}, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent.id,
			Name: name, Start: int64(start), End: int64(end)})
		r.mu.Unlock()
	}
}

// openCtx starts a span whose parent is the span carried by ctx, and
// returns ctx carrying the new span.
func (r *recorder) openCtx(ctx context.Context, name string) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	ref, end := r.open(parent, name)
	return context.WithValue(ctx, spanKey{}, ref), end
}

// mark returns a position in the span log for since.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since copies the spans that ended after mark was taken.
func (r *recorder) since(mark int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (ref spanRef) header() string {
	return strconv.FormatUint(ref.trace, 16) + "/" + strconv.FormatUint(ref.id, 16)
}

func parseSpanHeader(h string) (spanRef, bool) {
	t, id, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}, false
	}
	tv, err1 := strconv.ParseUint(t, 16, 64)
	iv, err2 := strconv.ParseUint(id, 16, 64)
	return spanRef{tv, iv}, err1 == nil && err2 == nil
}

// wrap times every request h serves as a span named name, parented on the
// span named by the request's traceHeader. With a nil recorder h is
// returned as is.
func wrap(h http.Handler, name string, r *recorder) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := parseSpanHeader(req.Header.Get(traceHeader))
		ref, end := r.open(parent, name)
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, ref)))
		end()
	})
}

// wireTransport is the coordinator's transport to its replicas in traced
// runs: it counts the bytes each way, and times each call as
// a "netcluster.rpc" span parented on the coordinator request that caused
// it, passing the span on to the replica's server span.
type wireTransport struct {
	rec       *recorder
	base      http.RoundTripper
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

func newWireTransport(rec *recorder) *wireTransport {
	return &wireTransport{rec: rec, base: http.DefaultTransport}
}

func (t *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	ctx, end := t.rec.openCtx(req.Context(), "netcluster.rpc")
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		req = req.Clone(ctx)
		req.Header.Set(traceHeader, ref.header())
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes, end: end}
	return resp, nil
}

// countingBody counts the bytes read from a response body and ends the
// call's span once the body is closed.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	end  func()
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// byTrace indexes spans by trace and then by "parent>name", the name of a
// span prefixed by its parent's ("" for a root). Within one probe trace
// every such path is unique.
func byTrace(spans []span) map[uint64]map[string]time.Duration {
	names := make(map[uint64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	out := make(map[uint64]map[string]time.Duration)
	for _, s := range spans {
		m := out[s.Trace]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Trace] = m
		}
		m[names[s.Parent]+">"+s.Name] = s.dur()
	}
	return out
}

// selfTimes derives, for every trace holding all the named spans, the
// outer span's duration minus the inner spans': the time the outer layer
// spends on its own, when the inner calls time the work it delegates.
func selfTimes(traces map[uint64]map[string]time.Duration, outer string, inner ...string) []time.Duration {
	var out []time.Duration
	for _, m := range traces {
		d, ok := m[outer]
		for _, in := range inner {
			v, has := m[in]
			ok = ok && has
			d -= v
		}
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// durations lists, over every trace that has it, the duration of the span
// at path.
func durations(traces map[uint64]map[string]time.Duration, path string) []time.Duration {
	return selfTimes(traces, path)
}

func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-%d.jsonl", dir, workload, seed)
}
