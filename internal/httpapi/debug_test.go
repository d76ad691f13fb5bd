package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"semdisco"
)

func burst(t *testing.T, srv *Server, queries ...string) {
	t.Helper()
	for _, q := range queries {
		rec, body := do(t, srv, "POST", "/v1/search", `{"query":"`+q+`","k":3}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("search %q = %d %s", q, rec.Code, body)
		}
	}
}

func TestDebugSlowEndpoint(t *testing.T) {
	srv := testServer(t)
	burst(t, srv, "COVID", "quartz hardness", "coronavirus vaccines")

	rec, body := do(t, srv, "GET", "/v1/debug/slow", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/slow=%d %s", rec.Code, body)
	}
	var resp SlowQueriesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Recorded != 3 || len(resp.SlowQueries) != 3 {
		t.Fatalf("resp=%+v", resp)
	}
	for i, sq := range resp.SlowQueries {
		if sq.Method != "ANNS" || sq.Query == "" || len(sq.Stages) == 0 {
			t.Fatalf("record %d = %+v", i, sq)
		}
		if i > 0 && sq.DurationMS > resp.SlowQueries[i-1].DurationMS {
			t.Fatal("not sorted slowest-first")
		}
	}

	// ?n bounds the response.
	rec, body = do(t, srv, "GET", "/v1/debug/slow?n=1", "")
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(resp.SlowQueries) != 1 {
		t.Fatalf("n=1: %d %+v", rec.Code, resp)
	}
}

func TestDebugSlowBadParams(t *testing.T) {
	srv := testServer(t)
	for _, q := range []string{"?n=abc", "?n=-1", "?n=1e3"} {
		rec, body := do(t, srv, "GET", "/v1/debug/slow"+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d %s", q, rec.Code, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body=%s", q, body)
		}
	}
	// Oversized n is clamped, not rejected.
	rec, _ := do(t, srv, "GET", "/v1/debug/slow?n=100000", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("huge n: code=%d", rec.Code)
	}
	// Wrong method gets the JSON 405.
	rec, _ = do(t, srv, "POST", "/v1/debug/slow", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: code=%d", rec.Code)
	}
}

func TestDebugIndexEndpoint(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "GET", "/v1/debug/index", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/index=%d %s", rec.Code, body)
	}
	var h IndexDebugResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Method != "ANNS" || h.Values == 0 || h.Graph == nil {
		t.Fatalf("health=%+v", h)
	}
	if h.Graph.ReachableFraction != 1 {
		t.Fatalf("graph=%+v", h.Graph)
	}
	if h.Segments.Segments != 1 || h.Segments.LiveRelations == 0 {
		t.Fatalf("segments=%+v", h.Segments)
	}
	// A delete shows up in the debug segment stats.
	if rec, _ := do(t, srv, "DELETE", "/v1/relations/minerals", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete=%d", rec.Code)
	}
	_, body = do(t, srv, "GET", "/v1/debug/index", "")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Segments.DeadRelations != 1 {
		t.Fatalf("segments after delete=%+v", h.Segments)
	}
}

func TestDebugRecallEndpoint(t *testing.T) {
	srv := testServer(t)
	burst(t, srv, "COVID")
	rec, body := do(t, srv, "GET", "/v1/debug/recall?k=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/recall=%d %s", rec.Code, body)
	}
	var res semdisco.RecallResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Method != "ANNS" || res.K != 3 || res.Recall < 0 || res.Recall > 1 {
		t.Fatalf("res=%+v", res)
	}

	for _, q := range []string{"?k=abc", "?k=-2"} {
		rec, _ := do(t, srv, "GET", "/v1/debug/recall"+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d", q, rec.Code)
		}
	}
}

func TestDebugRecallBusy(t *testing.T) {
	srv := testServer(t)
	srv.probeMu.Lock()
	defer srv.probeMu.Unlock()
	rec, body := do(t, srv, "GET", "/v1/debug/recall", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("busy probe: code=%d %s", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

func TestDebugJournalEndpoint(t *testing.T) {
	srv := testServer(t)
	// Re-arm diagnostics so every query journals a sampled trace.
	srv.eng.ConfigureDiagnostics(semdisco.DiagnosticsConfig{TraceSampleEvery: 1})
	burst(t, srv, "COVID", "quartz")

	rec, body := do(t, srv, "GET", "/v1/debug/journal", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/journal=%d %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type=%q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal lines=%d body=%s", len(lines), body)
	}
	var ev struct {
		Kind       string  `json:"kind"`
		Query      string  `json:"query"`
		DurationMS float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "sampled" || ev.Query == "" {
		t.Fatalf("event=%+v", ev)
	}
}

func TestDebugJournalDisabled(t *testing.T) {
	srv := testServer(t)
	srv.eng.ConfigureDiagnostics(semdisco.DiagnosticsConfig{Disable: true})
	rec, _ := do(t, srv, "GET", "/v1/debug/journal", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled journal: code=%d", rec.Code)
	}
}

func TestStartRecallProbe(t *testing.T) {
	srv := testServer(t)
	done := make(chan struct{})
	srv.StartRecallProbe(done, 5*time.Millisecond, 3)
	defer close(done)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		snap := srv.eng.MetricsRegistry().Snapshot()
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "semdisco_recall_at_k") {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("periodic probe never exported a recall gauge")
}

// TestRecallProbeDuringWrites: with no server-wide lock, recall probes,
// searches and the write path run concurrently against one engine; the
// race detector checks the engine's own synchronization covers them.
func TestRecallProbeDuringWrites(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("extra-%d", i)
			body := `{"id":"` + id + `","source":"S","columns":["Mineral"],"rows":[["Quartz ` + id + `"]]}`
			if rec, out := do(t, srv, "POST", "/v1/relations", body); rec.Code != http.StatusCreated {
				t.Errorf("add %s = %d %s", id, rec.Code, out)
				return
			}
			if i%2 == 0 {
				if rec, out := do(t, srv, "DELETE", "/v1/relations/"+id, ""); rec.Code != http.StatusOK {
					t.Errorf("delete %s = %d %s", id, rec.Code, out)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if rec, out := do(t, srv, "POST", "/v1/search", `{"query":"mineral hardness","k":3}`); rec.Code != http.StatusOK {
				t.Errorf("search = %d %s", rec.Code, out)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		rec, out := do(t, srv, "GET", "/v1/debug/recall?k=3", "")
		if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
			t.Errorf("recall probe = %d %s", rec.Code, out)
		}
	}
	wg.Wait()
}
