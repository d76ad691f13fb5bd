package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semdisco"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	return New(testEngine(t, semdisco.SegmentsConfig{}))
}

// testEngine opens the two-relation ANNS engine behind testServer.
func testEngine(t *testing.T, segs semdisco.SegmentsConfig) *semdisco.Engine {
	t.Helper()
	fed := semdisco.NewFederation()
	add := func(r *semdisco.Relation) {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(&semdisco.Relation{
		ID: "vaccines", Source: "WHO",
		Columns: []string{"Region", "Vaccine"},
		Rows:    [][]string{{"Europe", "Vaxzevria"}, {"Asia", "CoronaVac"}},
	})
	add(&semdisco.Relation{
		ID: "minerals", Source: "USGS",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}},
	})
	lex := semdisco.NewLexicon()
	lex.AddSynonyms("COVID", "coronavirus", "Vaxzevria", "CoronaVac")
	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.ANNS, Dim: 192, Seed: 1, Lexicon: lex, Segments: segs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func do(t *testing.T, srv *Server, method, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthAndStats(t *testing.T) {
	srv := testServer(t)
	rec, _ := do(t, srv, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz=%d", rec.Code)
	}
	rec, body := do(t, srv, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats=%d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Method != "ANNS" || stats.NumValues == 0 {
		t.Fatalf("stats=%+v", stats)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].RelationID != "vaccines" {
		t.Fatalf("matches=%+v", resp.Matches)
	}
}

func TestSearchWithSources(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":5,"sources":["USGS"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	json.Unmarshal(body, &resp)
	for _, m := range resp.Matches {
		if m.RelationID == "vaccines" {
			t.Fatalf("source filter leaked: %+v", resp.Matches)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	srv := testServer(t)
	for _, body := range []string{"", "{", `{"k":3}`} {
		rec, _ := do(t, srv, "POST", "/v1/search", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code=%d", body, rec.Code)
		}
	}
	// Wrong method on a POST route.
	rec, _ := do(t, srv, "GET", "/v1/search", "")
	if rec.Code == http.StatusOK {
		t.Fatal("GET on POST route should not succeed")
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/datasets", `{"query":"COVID","k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("datasets=%d %s", rec.Code, body)
	}
	var resp DatasetsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Datasets) == 0 || resp.Datasets[0].Source != "WHO" {
		t.Fatalf("datasets=%+v", resp.Datasets)
	}
}

func TestAddRelationEndpoint(t *testing.T) {
	srv := testServer(t)
	rel := RelationJSON{
		ID: "flu", Source: "WHO",
		Columns: []string{"Region", "Strain"},
		Rows:    [][]string{{"Europe", "influenza H1N1"}},
	}
	payload, _ := json.Marshal(rel)
	rec, body := do(t, srv, "POST", "/v1/relations", string(bytes.TrimSpace(payload)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("add=%d %s", rec.Code, body)
	}
	// The new relation is searchable.
	rec, body = do(t, srv, "POST", "/v1/search", `{"query":"influenza","k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d", rec.Code)
	}
	var resp SearchResponse
	json.Unmarshal(body, &resp)
	if len(resp.Matches) == 0 || resp.Matches[0].RelationID != "flu" {
		t.Fatalf("added relation not searchable: %+v", resp.Matches)
	}
	// Duplicate add fails.
	rec, _ = do(t, srv, "POST", "/v1/relations", string(payload))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate add=%d", rec.Code)
	}
	// Invalid body fails.
	rec, _ = do(t, srv, "POST", "/v1/relations", "{")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body add=%d", rec.Code)
	}
}

func TestDeleteRelationEndpoint(t *testing.T) {
	// Deleting 1 of 2 relations crosses the compaction trigger; manual
	// maintenance keeps the tombstone in place for the stats assertion.
	srv := New(testEngine(t, semdisco.SegmentsConfig{Manual: true}))
	rec, body := do(t, srv, "DELETE", "/v1/relations/minerals", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete=%d %s", rec.Code, body)
	}
	// The tombstoned relation stops matching.
	rec, body = do(t, srv, "POST", "/v1/search", `{"query":"mineral hardness","k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d", rec.Code)
	}
	var resp SearchResponse
	json.Unmarshal(body, &resp)
	for _, m := range resp.Matches {
		if m.RelationID == "minerals" {
			t.Fatalf("deleted relation still served: %+v", resp.Matches)
		}
	}
	// Stats report the tombstone.
	rec, body = do(t, srv, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats=%d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Segments.DeadRelations != 1 || stats.NumRelations != 1 {
		t.Fatalf("segment stats after delete: %+v", stats.Segments)
	}
	// Unknown and repeated deletes get 404.
	for _, path := range []string{"/v1/relations/minerals", "/v1/relations/nope"} {
		rec, _ = do(t, srv, "DELETE", path, "")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("delete %s=%d, want 404", path, rec.Code)
		}
	}
	// Wrong method on the delete route.
	rec, _ = do(t, srv, "POST", "/v1/relations/minerals", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method=%d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Run a search first so the search metrics exist.
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	rec, body = do(t, srv, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics=%d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type=%q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`semdisco_searches_total{method="ANNS"} 1`,
		`semdisco_search_seconds_bucket{method="ANNS",le="+Inf"} 1`,
		`semdisco_search_stage_seconds_count{method="ANNS",stage="encode"} 1`,
		"semdisco_embed_cache_hits_total",
		"semdisco_index_inserts_total",
		`semdisco_index_build_seconds{phase="hnsw_insert"}`,
		`semdisco_http_requests_total{path="POST /v1/search",code="200"} 1`,
		"# TYPE semdisco_search_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestTracedSearch(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1,"trace":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but absent")
	}
	names := make(map[string]bool)
	for _, st := range resp.Trace.Stages {
		names[st.Name] = true
	}
	for _, want := range []string{"encode", "retrieve", "rank"} {
		if !names[want] {
			t.Errorf("trace missing stage %q (got %v)", want, resp.Trace.Stages)
		}
	}
	// Untraced search carries no trace.
	rec, body = do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	resp = SearchResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatalf("unexpected trace: %+v", resp.Trace)
	}
}

func TestStatsObservability(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	}
	rec, body := do(t, srv, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats=%d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Searches["ANNS"]; got != 3 {
		t.Fatalf("searches=%d want 3", got)
	}
	lat, ok := stats.SearchLatency["ANNS"]
	if !ok || lat.Count != 3 || lat.P95MS <= 0 {
		t.Fatalf("latency=%+v", stats.SearchLatency)
	}
	if stats.CacheHits+stats.CacheMisses == 0 {
		t.Fatal("cache counters empty")
	}
	if stats.BuildSeconds["embed"] <= 0 {
		t.Fatalf("build_seconds=%v", stats.BuildSeconds)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatal("uptime missing")
	}
}

func TestErrorBodies(t *testing.T) {
	srv := testServer(t)
	// Wrong method returns a JSON 405 with an Allow header.
	rec, body := do(t, srv, "GET", "/v1/search", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("code=%d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "POST" {
		t.Fatalf("allow=%q", allow)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("405 body %q not a JSON error: %v", body, err)
	}
	// Unknown route returns a JSON 404.
	rec, body = do(t, srv, "GET", "/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code=%d", rec.Code)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("404 body %q not a JSON error: %v", body, err)
	}
	// Malformed body returns a JSON 400.
	rec, body = do(t, srv, "POST", "/v1/search", "{")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code=%d", rec.Code)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("400 body %q not a JSON error: %v", body, err)
	}
}
