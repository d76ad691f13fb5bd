package netcluster

import (
	"semdisco/internal/core"
	"semdisco/internal/obs"
	"semdisco/internal/table"
)

// Wire paths of the internal coordinator↔shard protocol. They live under
// /internal/ because they accept pre-encoded vectors: the public API's
// contract (queries are strings, embeddings never leave the box they were
// computed on) does not hold for them, and a deployment fronting shards
// with a reverse proxy should not route them from outside.
const (
	// PathEncodedSearch is the single-query encoded-search endpoint.
	PathEncodedSearch = "/internal/v1/search/encoded"
	// PathEncodedSearchBatch is the blocked multi-query variant.
	PathEncodedSearchBatch = "/internal/v1/search/encoded/batch"
)

// Error codes of the unified error body (ErrorBody / httpapi's
// ErrorResponse). The coordinator classifies remote failures on them
// rather than parsing message strings.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotImplemented   = "not_implemented"
	CodeTooManyRequests  = "too_many_requests"
	CodeInternal         = "internal"
	CodeUnavailable      = "unavailable"
)

// ErrorBody is the unified JSON error shape every non-2xx response
// carries: {"error": <human detail>, "code": <machine class>}. It mirrors
// httpapi.ErrorResponse — declared here too so the shard handler and the
// client need no httpapi import (which would be an import cycle).
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WireMatch is one ranked result on the wire. Scores travel as float32
// JSON numbers; Go's shortest-round-trip float formatting makes the
// encode/decode exact, which the bit-identical-merge guarantee relies on.
type WireMatch struct {
	RelationID string  `json:"relation_id"`
	Score      float32 `json:"score"`
}

// EncodedSearchRequest is the body of PathEncodedSearch: a pre-encoded
// query vector (the coordinator embedded the query string once) and k.
type EncodedSearchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
}

// EncodedSearchResponse is the body returned by PathEncodedSearch.
type EncodedSearchResponse struct {
	Matches []WireMatch `json:"matches"`
	// Cost is the work this shard performed for the query; the coordinator
	// folds it into the federated query's aggregate cost report.
	Cost obs.CostReport `json:"cost"`
	// Spans carries the shard-side span records of this search, all under
	// the propagated trace ID. The coordinator grafts them into its own
	// trace so a stored coordinator trace nests the remote work of every
	// shard attempt.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// EncodedBatchRequest is the body of PathEncodedSearchBatch: one blocked
// request scoring every vector of the block per corpus pass.
type EncodedBatchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	Ks      []int       `json:"ks"`
}

// EncodedBatchResponse is the body returned by PathEncodedSearchBatch,
// positionally aligned with the request.
type EncodedBatchResponse struct {
	Results [][]WireMatch    `json:"results"`
	Costs   []obs.CostReport `json:"costs"`
	Spans   []obs.SpanRecord `json:"spans,omitempty"`
}

// Relation is a relation's JSON form on the write path: the public
// ingest body (httpapi.RelationJSON), and what a coordinator sends every
// replica of the owning set.
type Relation struct {
	ID           string     `json:"id"`
	Source       string     `json:"source"`
	PageTitle    string     `json:"page_title,omitempty"`
	SectionTitle string     `json:"section_title,omitempty"`
	Caption      string     `json:"caption,omitempty"`
	Columns      []string   `json:"columns"`
	Rows         [][]string `json:"rows"`
}

// RelationOf converts a relation to its JSON form.
func RelationOf(r *table.Relation) Relation {
	return Relation{ID: r.ID, Source: r.Source, PageTitle: r.PageTitle,
		SectionTitle: r.SectionTitle, Caption: r.Caption, Columns: r.Columns, Rows: r.Rows}
}

// Table converts the JSON form back to a relation.
func (r Relation) Table() *table.Relation {
	return &table.Relation{ID: r.ID, Source: r.Source, PageTitle: r.PageTitle,
		SectionTitle: r.SectionTitle, Caption: r.Caption, Columns: r.Columns, Rows: r.Rows}
}

// toWire converts matches to their wire form.
func toWire(ms []core.Match) []WireMatch {
	out := make([]WireMatch, len(ms))
	for i, m := range ms {
		out[i] = WireMatch{RelationID: m.RelationID, Score: m.Score}
	}
	return out
}

// fromWire converts wire matches back to core matches.
func fromWire(ms []WireMatch) []core.Match {
	out := make([]core.Match, len(ms))
	for i, m := range ms {
		out[i] = core.Match{RelationID: m.RelationID, Score: m.Score}
	}
	return out
}
