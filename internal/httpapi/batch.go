package httpapi

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"

	"semdisco"
)

// maxBatchQueries caps one /v1/search/batch request: large enough for the
// batch sizes that saturate the blocked kernels (the bench uses 64), small
// enough that one request cannot monopolize the server.
const maxBatchQueries = 256

// BatchQueryJSON is one item of a /v1/search/batch request.
type BatchQueryJSON struct {
	Query string `json:"query"`
	K     int    `json:"k"`
}

// BatchSearchRequest is the body of /v1/search/batch.
type BatchSearchRequest struct {
	Queries []BatchQueryJSON `json:"queries"`
}

// BatchItemJSON is one query's slice of a /v1/search/batch response,
// positionally aligned with the request's queries. The cluster-mode fields
// (degraded, shard_errors, cache_hit, coalesced) mirror /v1/search.
type BatchItemJSON struct {
	Matches []MatchJSON `json:"matches"`
	// Cost is this item's work accounting. A coalesced or cached item
	// reports zero cost: the scan was charged to the request it shared.
	Cost        *semdisco.CostReport `json:"cost,omitempty"`
	Degraded    bool                 `json:"degraded,omitempty"`
	ShardErrors []string             `json:"shard_errors,omitempty"`
	CacheHit    bool                 `json:"cache_hit,omitempty"`
	// Coalesced reports the item shared another identical in-flight or
	// in-batch (query, k) request's scan instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
}

// BatchSearchResponse is the body returned by /v1/search/batch.
type BatchSearchResponse struct {
	Results []BatchItemJSON `json:"results"`
}

// handleSearchBatch answers POST /v1/search/batch: a block of queries
// executed in one fused pass — one blocked scan scoring every query per
// corpus chunk in engine mode, one scatter-gather per shard for the whole
// block in federated mode. Results are positionally aligned with the request.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries is required")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}
	queries := make([]semdisco.Query, len(req.Queries))
	for i, q := range req.Queries {
		if q.Query == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("queries[%d].query is required", i))
			return
		}
		k := q.K
		if k <= 0 {
			k = 10
		}
		if k > 1000 {
			k = 1000
		}
		queries[i] = semdisco.Query{Text: q.Query, K: k}
	}
	annotate(r, slog.Int("batch", len(queries)))

	resp := BatchSearchResponse{Results: make([]BatchItemJSON, len(queries))}
	if s.cluster != nil {
		results, err := s.cluster.SearchBatch(r.Context(), queries)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		for i, res := range results {
			cost := res.Cost
			resp.Results[i] = BatchItemJSON{
				Matches:     matchesJSON(res.Matches),
				Cost:        &cost,
				Degraded:    res.Degraded,
				ShardErrors: shardErrors(res),
				CacheHit:    res.CacheHit,
				Coalesced:   res.Coalesced,
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	results, err := s.eng.SearchBatch(r.Context(), queries)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for i, res := range results {
		cost := res.Cost
		resp.Results[i] = BatchItemJSON{Matches: matchesJSON(res.Matches), Cost: &cost}
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchesJSON converts matches to their wire form.
func matchesJSON(ms []semdisco.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{RelationID: m.RelationID, Score: m.Score}
	}
	return out
}
