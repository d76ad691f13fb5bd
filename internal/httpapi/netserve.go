package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"semdisco"
	"semdisco/internal/netcluster"
)

// NewCoordinator builds a federated-mode Server fronting a networked
// cluster's coordinator: /v1/search and /v1/search/batch answer by
// wire-level scatter-gather over the replica sets (with the same
// degradation metadata cluster mode reports), /v1/relations writes route
// to the ring-owning set's replicas, /v1/stats reports router plus
// per-replica-set failover health, and the trace endpoints serve the
// coordinator's store — federated span trees with every winning replica's
// remote spans grafted in. Engine-only surfaces (datasets, index debug,
// recall probes) respond 501.
func NewCoordinator(nc *semdisco.NetCoordinator, opts ...Option) *Server {
	return newFederated(nc.Cluster, func(r *StatsResponse) {
		ns := nc.Stats()
		r.Netcluster = &ns
	}, opts)
}

// writeBackendError maps a backend mutation/search error onto the unified
// error body. A *netcluster.WriteError (partial replica application) is an
// internal fault: the write is durable somewhere and the failed replicas
// need repair. A *netcluster.RemoteError passes the shard's own status
// through — a 404 from every replica of the owning set surfaces as this
// server's 404. Anything else gets the caller's fallback status.
func writeBackendError(w http.ResponseWriter, err error, fallback int) {
	var we *netcluster.WriteError
	if errors.As(err, &we) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var re *netcluster.RemoteError
	if errors.As(err, &re) && re.Status >= 400 {
		writeError(w, re.Status, err.Error())
		return
	}
	writeError(w, fallback, err.Error())
}

// handleUpdateRelation replaces a relation's contents in place (PUT
// /v1/relations/{id}): tombstone plus re-ingest under the same ID, moving
// the relation to the end of the global merge order. The body's ID may be
// omitted (the path wins) but must match the path when present.
func (s *Server) handleUpdateRelation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rel RelationJSON
	if err := json.NewDecoder(r.Body).Decode(&rel); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if rel.ID == "" {
		rel.ID = id
	}
	if rel.ID != id {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("body relation ID %q does not match path ID %q", rel.ID, id))
		return
	}
	annotate(r, slog.String("relation", id))
	sr := rel.Table()
	if err := sr.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var err error
	if s.cluster != nil {
		err = s.cluster.UpdateContext(r.Context(), sr)
	} else {
		err = s.eng.Update(sr)
	}
	if err != nil {
		writeBackendError(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "updated", "id": id})
}
