package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"semdisco"
)

// Bounds on the debug endpoints: they exist for humans with curl, and must
// not become a way to make the server do unbounded work.
const (
	defaultSlowN  = 20   // /v1/debug/slow default ?n
	maxSlowN      = 100  // /v1/debug/slow cap on ?n
	defaultProbeK = 10   // /v1/debug/recall default ?k
	maxProbeK     = 50   // /v1/debug/recall cap on ?k
	maxJournalN   = 1000 // /v1/debug/journal cap on ?n
)

// SlowQueriesResponse is the body of /v1/debug/slow.
type SlowQueriesResponse struct {
	semdisco.SlowLogStats
	SlowQueries []semdisco.SlowQuery `json:"slow_queries"`
}

// queryInt parses an optional integer query parameter. Returns (def, true)
// when absent, (0, false) on garbage.
func queryInt(r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, false
	}
	return v, true
}

// limitParam is the one clamping convention every list-style debug
// endpoint shares: an absent or explicit-zero ?name= selects def, a
// negative or non-numeric value rejects (the caller answers 400), and
// values above max clamp to max. A def of 0 means "no limit" (the
// journal's natural default — its retention is already bounded).
func limitParam(r *http.Request, name string, def, max int) (int, bool) {
	n, ok := queryInt(r, name, def)
	if !ok || n < 0 {
		return 0, false
	}
	if n == 0 {
		n = def
	}
	if n > max {
		n = max
	}
	return n, true
}

// handleDebugSlow serves the slow-query log: up to ?n records (default 20,
// capped at 100), slowest first, each with its full stage trace.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w) {
		return
	}
	n, ok := limitParam(r, "n", defaultSlowN, maxSlowN)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	writeJSON(w, http.StatusOK, SlowQueriesResponse{
		SlowLogStats: s.eng.SlowLogStats(),
		SlowQueries:  s.eng.SlowQueries(n),
	})
}

// IndexDebugResponse is the body of /v1/debug/index: the engine's index
// health plus the segment store's shape (segment counts, tombstoned
// volume, seal and compaction counters).
type IndexDebugResponse struct {
	semdisco.IndexHealth
	Segments semdisco.SegmentStats `json:"segments"`
}

// handleDebugIndex serves the engine's index-health introspection: HNSW
// graph shape and reachability, PQ distortion, CTS cluster balance, and
// the segment store's compaction state.
func (s *Server) handleDebugIndex(w http.ResponseWriter, _ *http.Request) {
	if !s.requireEngine(w) {
		return
	}
	writeJSON(w, http.StatusOK, IndexDebugResponse{
		IndexHealth: s.eng.IndexHealth(),
		Segments:    s.eng.SegmentStats(),
	})
}

// handleDebugRecall runs one online recall probe at ?k (default 10,
// clamped to [1,50]). Probes are expensive — one exhaustive scan per
// replayed query — so at most one runs at a time; concurrent requests get
// a 429 with Retry-After rather than queueing up probe work.
func (s *Server) handleDebugRecall(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w) {
		return
	}
	k, ok := limitParam(r, "k", defaultProbeK, maxProbeK)
	if !ok {
		writeError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	if !s.probeMu.TryLock() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "a recall probe is already running")
		return
	}
	defer s.probeMu.Unlock()
	res, err := s.eng.RecallProbe(k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleDebugJournal streams the structured event journal (slow and
// sampled query traces) as JSON lines, oldest first. ?n limits the stream
// to the newest n events (absent or 0 streams everything retained, capped
// at 1000); negative or non-numeric values are rejected, the same
// convention as the other list endpoints.
func (s *Server) handleDebugJournal(w http.ResponseWriter, r *http.Request) {
	if !s.requireEngine(w) {
		return
	}
	n, ok := limitParam(r, "n", 0, maxJournalN)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	j := s.eng.Journal()
	if j == nil {
		writeError(w, http.StatusNotFound, "diagnostics are disabled on this engine")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, e := range j.Events(n) {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

// StartRecallProbe launches a goroutine probing recall@k every interval
// until ctx is done (used by semdisco-serve's -recall-probe-interval).
// Each probe takes the probe mutex, so probes never pile up behind a slow
// manual probe.
func (s *Server) StartRecallProbe(done <-chan struct{}, interval time.Duration, k int) {
	if interval <= 0 || s.eng == nil {
		return
	}
	if k <= 0 {
		k = defaultProbeK
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !s.probeMu.TryLock() {
					continue
				}
				res, err := s.eng.RecallProbe(k)
				s.probeMu.Unlock()
				if s.log != nil {
					if err != nil {
						s.log.Error("recall probe", "err", err)
					} else {
						s.log.Info("recall probe",
							"method", res.Method, "k", res.K,
							"recall", fmt.Sprintf("%.3f", res.Recall),
							"probed", res.Probed, "source", res.Source)
					}
				}
			}
		}
	}()
}
