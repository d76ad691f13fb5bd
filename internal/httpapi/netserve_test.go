package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semdisco"
	"semdisco/internal/netcluster"
)

// netFed builds n deterministic relations with overlapping vocabulary, the
// same shape the root cluster tests use.
func netFed(t *testing.T, n int) *semdisco.Federation {
	t.Helper()
	fed := semdisco.NewFederation()
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(i, j int) string {
		return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
	}
	for i := 0; i < n; i++ {
		r := &semdisco.Relation{
			ID:      fmt.Sprintf("rel-%03d", i),
			Source:  fmt.Sprintf("src-%d", i%3),
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// coordServer stands up the full networked stack over httpapi itself:
// every replica is a complete httpapi.New shard server (public API plus
// the internal wire endpoints), and the returned Server fronts a
// NetCoordinator over them — the deployment cmd/semdisco-serve assembles,
// in-process.
func coordServer(t *testing.T) (*Server, *semdisco.Engine) {
	t.Helper()
	fed := netFed(t, 24)
	cfg := semdisco.Config{Method: semdisco.ExS, Dim: 64, Seed: 1}
	single, err := semdisco.Open(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sets, reps = 2, 2
	replicaSets := make([][]string, sets)
	for s := 0; s < sets; s++ {
		for r := 0; r < reps; r++ {
			eng, err := semdisco.NewNetShard(fed, semdisco.NetShardConfig{Config: cfg, Sets: sets, Set: s})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(New(eng))
			t.Cleanup(srv.Close)
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
	}
	nc, err := semdisco.NewNetCoordinator(fed, replicaSets, semdisco.NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(nc), single
}

func TestCoordinatorServerSearch(t *testing.T) {
	srv, single := coordServer(t)
	for _, q := range []string{"abc", "mno", "xyz qrs"} {
		body := fmt.Sprintf(`{"query":%q,"k":5}`, q)
		rec, out := do(t, srv, "POST", "/v1/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("search %q = %d: %s", q, rec.Code, out)
		}
		var resp SearchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("search %q degraded: %v", q, resp.ShardErrors)
		}
		want, err := single.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Matches) != len(want) {
			t.Fatalf("search %q: %d matches, engine returned %d", q, len(resp.Matches), len(want))
		}
		for i := range want {
			if resp.Matches[i].RelationID != want[i].RelationID || resp.Matches[i].Score != want[i].Score {
				t.Fatalf("search %q match %d: %+v vs engine %+v", q, i, resp.Matches[i], want[i])
			}
		}
	}
}

func TestCoordinatorServerBatch(t *testing.T) {
	srv, single := coordServer(t)
	rec, out := do(t, srv, "POST", "/v1/search/batch",
		`{"queries":[{"query":"abc","k":3},{"query":"bfd","k":7}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, out)
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	for i, tc := range []struct {
		q string
		k int
	}{{"abc", 3}, {"bfd", 7}} {
		want, err := single.Search(tc.q, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i].Matches
		if len(got) != len(want) {
			t.Fatalf("item %d: %d matches, engine returned %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].RelationID != want[j].RelationID || got[j].Score != want[j].Score {
				t.Fatalf("item %d match %d: %+v vs engine %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestCoordinatorServerStats(t *testing.T) {
	srv, _ := coordServer(t)
	rec, out := do(t, srv, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, out)
	}
	var stats StatsResponse
	if err := json.Unmarshal(out, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Netcluster == nil {
		t.Fatal("coordinator stats carry no netcluster section")
	}
	if stats.Netcluster.Sets != 2 {
		t.Errorf("netcluster.sets = %d, want 2", stats.Netcluster.Sets)
	}
	if stats.Method != "ExS" || stats.NumRelations != 24 {
		t.Errorf("method=%q relations=%d, want ExS/24", stats.Method, stats.NumRelations)
	}
}

// TestCoordinatorServerWriteRoutes drives the replicated write path end to
// end over HTTP: ingest, update, delete, and the unified error bodies on
// the failure branches.
func TestCoordinatorServerWriteRoutes(t *testing.T) {
	srv, single := coordServer(t)

	rec, out := do(t, srv, "POST", "/v1/relations",
		`{"id":"rel-new","source":"src-9","columns":["a","b"],"rows":[["abc","def"],["mno","xyz"]]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add = %d: %s", rec.Code, out)
	}
	if err := single.Add(&semdisco.Relation{
		ID: "rel-new", Source: "src-9",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"abc", "def"}, {"mno", "xyz"}},
	}); err != nil {
		t.Fatal(err)
	}
	rec, out = do(t, srv, "POST", "/v1/search", `{"query":"abc def","k":10}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search after add = %d: %s", rec.Code, out)
	}
	var sresp SearchResponse
	if err := json.Unmarshal(out, &sresp); err != nil {
		t.Fatal(err)
	}
	want, err := single.Search("abc def", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sresp.Matches[i].RelationID != want[i].RelationID {
			t.Fatalf("after add, match %d: %s vs engine %s",
				i, sresp.Matches[i].RelationID, want[i].RelationID)
		}
	}

	// PUT with a body whose ID contradicts the path is the caller's error.
	rec, out = do(t, srv, "PUT", "/v1/relations/rel-new",
		`{"id":"other","source":"src-9","columns":["a"],"rows":[["x"]]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched PUT = %d: %s", rec.Code, out)
	}
	rec, out = do(t, srv, "PUT", "/v1/relations/rel-new",
		`{"source":"src-9","columns":["a","b"],"rows":[["qrs","bfd"]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update = %d: %s", rec.Code, out)
	}

	rec, out = do(t, srv, "DELETE", "/v1/relations/rel-new", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, out)
	}
	// Deleting again fails on every replica with 404; the coordinator must
	// surface the replicas' own status and the unified error body.
	rec, out = do(t, srv, "DELETE", "/v1/relations/rel-new", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d: %s", rec.Code, out)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(out, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != netcluster.CodeNotFound || eresp.Error == "" {
		t.Fatalf("double delete body = %+v, want code %q", eresp, netcluster.CodeNotFound)
	}
}

// TestCoordinatorServerEngineOnlySurfaces: endpoints that need a local
// engine answer 501 with the unified body in coordinator mode, while the
// workload analytics the coordinator runs itself are served.
func TestCoordinatorServerEngineOnlySurfaces(t *testing.T) {
	srv, _ := coordServer(t)
	rec, out := do(t, srv, "GET", "/v1/debug/index", "")
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("debug/index = %d: %s", rec.Code, out)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(out, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != netcluster.CodeNotImplemented {
		t.Fatalf("code = %q, want %q", eresp.Code, netcluster.CodeNotImplemented)
	}
	rec, _ = do(t, srv, "GET", "/v1/debug/workload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/workload = %d, want 200", rec.Code)
	}
}

// hangCoordServer is coordServer with every coordinator→replica request
// passing a fault injector; it also returns the replica URLs per set.
func hangCoordServer(t *testing.T) (*Server, *netcluster.FaultInjector, [][]string) {
	t.Helper()
	fed := netFed(t, 24)
	cfg := semdisco.Config{Method: semdisco.ExS, Dim: 64, Seed: 1}
	const sets, reps = 2, 2
	replicaSets := make([][]string, sets)
	for s := 0; s < sets; s++ {
		for r := 0; r < reps; r++ {
			eng, err := semdisco.NewNetShard(fed, semdisco.NetShardConfig{Config: cfg, Sets: sets, Set: s})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(New(eng))
			t.Cleanup(srv.Close)
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
	}
	inj := netcluster.NewFaultInjector(nil)
	nc, err := semdisco.NewNetCoordinator(fed, replicaSets, semdisco.NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
		Transport:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(nc), inj, replicaSets
}

// TestCoordinatorServerSearchDuringHungWrite: a replicated write stuck on
// a wedged replica must not stall reads — the server holds no lock across
// a request, and the coordinator holds none across a remote write.
func TestCoordinatorServerSearchDuringHungWrite(t *testing.T) {
	srv, inj, replicaSets := hangCoordServer(t)
	const id = "rel-hang"
	ring, err := netcluster.NewRing(len(replicaSets), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the write's first replica request hangs, until the write's
	// request context is cancelled.
	inj.Set(replicaSets[ring.Owner(id)][0], netcluster.Fault{Hang: true, Remaining: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	written := make(chan int, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/relations", strings.NewReader(
			`{"id":"`+id+`","source":"src-9","columns":["a"],"rows":[["abc"]]}`)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		written <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inj.Injected()["hang"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the write never reached the hung replica")
		}
		time.Sleep(time.Millisecond)
	}

	searched := make(chan int, 1)
	go func() {
		rec, _ := do(t, srv, "POST", "/v1/search", `{"query":"abc","k":5}`)
		searched <- rec.Code
	}()
	select {
	case code := <-searched:
		if code != http.StatusOK {
			t.Fatalf("search during the hung write = %d, want 200", code)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("search blocked behind the hung write")
	}
	select {
	case <-written:
		t.Fatal("the write finished while its replica was still hung")
	default:
	}
	cancel()
	<-written
}

// TestCoordinatorServerTraceRequestID: a coordinator search's stored trace
// carries the request's X-Request-Id, as engine and cluster traces do.
func TestCoordinatorServerTraceRequestID(t *testing.T) {
	srv, _ := coordServer(t)
	srv.cluster.ConfigureTracing(keepAll)
	rec, body := doHdr(t, srv, "POST", "/v1/search", `{"query":"abc","k":3}`,
		map[string]string{"X-Request-Id": "r-12"})
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("search response carries no trace ID")
	}
	rec, body = do(t, srv, "GET", "/v1/debug/traces/"+resp.TraceID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace %s = %d: %s", resp.TraceID, rec.Code, body)
	}
	var tr struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.RequestID != "r-12" {
		t.Fatalf("stored trace request_id = %q, want r-12", tr.RequestID)
	}
}
