package httpapi

import (
	"net/http"

	"semdisco/internal/obs"
)

// workload returns whichever backend's workload analyzer the server
// fronts: heavy-hitter queries, per-shard load counters and the
// costliest-queries board.
func (s *Server) workload() *obs.Workload {
	if s.cluster != nil {
		return s.cluster.Workload()
	}
	return s.eng.Workload()
}

// slo returns whichever backend's SLO burn-rate engine the server fronts;
// nil when Config.SLO.Disable was set.
func (s *Server) slo() *obs.SLOEngine {
	if s.cluster != nil {
		return s.cluster.SLO()
	}
	return s.eng.SLO()
}

// handleDebugWorkload serves the workload analyzer's snapshot: total
// queries, the heavy-hitter sketch (normalized query keys with counts and
// error bounds), per-shard load with the Gini skew coefficient, and the
// costliest queries ranked by distance computations.
func (s *Server) handleDebugWorkload(w http.ResponseWriter, _ *http.Request) {
	wl := s.workload()
	if wl == nil {
		writeError(w, http.StatusNotFound, "workload analytics are disabled on this server")
		return
	}
	writeJSON(w, http.StatusOK, wl.Snapshot())
}

// handleDebugSLO serves the SLO engine's snapshot: per-objective
// (availability, latency) multi-window burn rates and the derived alert
// state (ok, slow_burn, fast_burn).
func (s *Server) handleDebugSLO(w http.ResponseWriter, _ *http.Request) {
	e := s.slo()
	if e == nil {
		writeError(w, http.StatusNotFound, "the SLO engine is disabled on this server")
		return
	}
	writeJSON(w, http.StatusOK, e.Snapshot())
}
