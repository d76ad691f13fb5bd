package httpapi

import (
	"context"
	"net/http"

	"semdisco"
)

// requireEngine gates engine-only surfaces (datasets, debug endpoints):
// in federated mode they respond 501 rather than pretending a monolithic
// engine exists behind the router.
func (s *Server) requireEngine(w http.ResponseWriter) bool {
	if s.eng != nil {
		return true
	}
	writeError(w, http.StatusNotImplemented, "endpoint not available in federated mode")
	return false
}

// add routes an ingest to whichever backend the server fronts.
func (s *Server) add(ctx context.Context, rel *semdisco.Relation) error {
	if s.cluster != nil {
		return s.cluster.AddContext(ctx, rel)
	}
	return s.eng.Add(rel)
}

// clusterSearch answers /v1/search by federated scatter-gather. The
// request context is threaded into every local shard's scan loops, or
// rides the wire as the replica attempts' deadline and traceparent, so a
// client hanging up stops shard work; degradation metadata rides along in
// the response instead of failing the query.
func (s *Server) clusterSearch(w http.ResponseWriter, r *http.Request, req SearchRequest) {
	if len(req.Sources) > 0 {
		writeError(w, http.StatusNotImplemented, "source-filtered search not available in federated mode")
		return
	}
	var (
		res    *semdisco.ClusterResult
		stages []semdisco.TraceStage
		err    error
	)
	if req.Trace {
		res, stages, err = s.cluster.SearchTracedContext(r.Context(), req.Query, req.K)
	} else {
		res, err = s.cluster.SearchContext(r.Context(), req.Query, req.K)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	cost := res.Cost
	writeJSON(w, http.StatusOK, SearchResponse{
		Matches:     matchesJSON(res.Matches),
		TraceID:     res.TraceID,
		Trace:       traceJSON(stages),
		Degraded:    res.Degraded,
		ShardErrors: shardErrors(res),
		CacheHit:    res.CacheHit,
		Cost:        &cost,
	})
}

// shardErrors lists a federated answer's failed shards for the response.
func shardErrors(res *semdisco.ClusterResult) []string {
	var out []string
	for _, se := range res.ShardErrors {
		out = append(out, se.Error())
	}
	return out
}
