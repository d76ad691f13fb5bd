package httpapi

import (
	"net/http"
	"sort"

	"semdisco"
	"semdisco/internal/obs"
)

// Bounds on the trace debug endpoint, same rationale as the slow-log caps.
const (
	defaultTracesN = 20  // /v1/debug/traces default ?n
	maxTracesN     = 100 // /v1/debug/traces cap on ?n
)

// traces returns whichever backend's trace store the server fronts; nil
// when tracing is disabled (a nil *obs.TraceStore is a valid no-op, but
// the handlers distinguish it to answer 404 honestly).
func (s *Server) traces() *obs.TraceStore {
	if s.cluster != nil {
		return s.cluster.Traces()
	}
	return s.eng.Traces()
}

// TracesResponse is the body of /v1/debug/traces: store volume counters
// and the retained traces, newest first.
type TracesResponse struct {
	// Offered counts every trace submitted to the store; Kept the ones
	// retained (tail criteria or head sample); Evicted the retained traces
	// later pushed out of the ring.
	Offered int64                  `json:"offered"`
	Kept    int64                  `json:"kept"`
	Evicted int64                  `json:"evicted"`
	Traces  []semdisco.StoredTrace `json:"traces"`
}

// SpanTreeJSON is one node of a rendered span tree: the stored span plus
// its children, ordered by start offset.
type SpanTreeJSON struct {
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartOffsetMS float64           `json:"start_offset_ms"`
	DurationMS    float64           `json:"duration_ms"`
	Annotations   map[string]string `json:"annotations,omitempty"`
	Children      []*SpanTreeJSON   `json:"children,omitempty"`
}

// TraceResponse is the body of /v1/debug/traces/{id}: the stored trace
// with its flat span list rendered as a tree.
type TraceResponse struct {
	semdisco.StoredTrace
	// Tree is the span forest: the root span(s) with children nested. A
	// span whose parent is not in the trace (e.g. the root of a propagated
	// trace, parented to the remote caller's span) appears as a top-level
	// node.
	Tree []*SpanTreeJSON `json:"tree"`
}

// SpanTree renders a stored trace's flat span list as a forest: children
// nested under parents, siblings ordered by start offset. Spans whose
// parent is absent from the trace — the root, or orphans whose parent
// never ended — surface as top-level nodes.
func SpanTree(spans []obs.StoredSpan) []*SpanTreeJSON {
	nodes := make(map[string]*SpanTreeJSON, len(spans))
	order := make([]*SpanTreeJSON, 0, len(spans))
	for _, sp := range spans {
		n := &SpanTreeJSON{
			SpanID:        sp.SpanID,
			ParentID:      sp.ParentID,
			Name:          sp.Name,
			StartOffsetMS: sp.StartOffsetMS,
			DurationMS:    sp.DurationMS,
			Annotations:   sp.Annotations,
		}
		nodes[sp.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanTreeJSON
	for _, n := range order {
		if p, ok := nodes[n.ParentID]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanTreeJSON) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartOffsetMS < ns[j].StartOffsetMS })
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots
}

// handleDebugTraces lists the retained traces, newest first: up to ?n
// (default 20, capped at 100). ?format=jsonl streams every retained trace
// as JSON lines, oldest first, for offline analysis.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	store := s.traces()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled on this server")
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = store.WriteJSONL(w)
		return
	}
	n, ok := limitParam(r, "n", defaultTracesN, maxTracesN)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{
		Offered: store.Offered(),
		Kept:    store.Kept(),
		Evicted: store.Evicted(),
		Traces:  store.List(n),
	})
}

// handleDebugTrace fetches one retained trace by hex trace ID and renders
// its span tree.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	store := s.traces()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled on this server")
		return
	}
	id := r.PathValue("id")
	st, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no retained trace "+id+"; only interesting or head-sampled traces are stored")
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{StoredTrace: st, Tree: SpanTree(st.Spans)})
}
