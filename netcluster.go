package semdisco

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"semdisco/internal/netcluster"
)

// EncodedBackend exposes the engine's encoded-search path — what a shard
// server mounts behind the internal wire endpoints (see
// netcluster.ShardHandler). The backend ranks pre-encoded vectors against
// this engine's partition; it is the same code path the in-process cluster
// Router calls, which is what keeps the networked ranking identical.
func (e *Engine) EncodedBackend() netcluster.ShardBackend { return e.store }

// Dim reports the engine's embedding dimensionality.
func (e *Engine) Dim() int { return e.model.Dim() }

// NetShardConfig parameterizes NewNetShard: the shared engine
// configuration plus this server's position in the replica topology.
type NetShardConfig struct {
	Config
	// Sets is the replica-set (partition) count of the whole deployment.
	Sets int
	// Set is this server's set index in [0, Sets).
	Set int
	// Vnodes is the placement ring's virtual-node count per set; it must
	// match the coordinator's (0 means the shared default).
	Vnodes int
}

// NewNetShard builds the engine one shard server of a networked cluster
// hosts: the full federation's IDF statistics feed the encoder — so the
// embedding space is identical on every shard and on the coordinator — but
// only the relations the placement ring assigns to cfg.Set are embedded
// and indexed. Every replica of a set runs this with the same (Sets, Set,
// Vnodes) and holds an identical partition copy.
func NewNetShard(fed *Federation, cfg NetShardConfig) (*Engine, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	if cfg.Sets < 1 {
		return nil, fmt.Errorf("semdisco: invalid set count %d", cfg.Sets)
	}
	if cfg.Set < 0 || cfg.Set >= cfg.Sets {
		return nil, fmt.Errorf("semdisco: set %d out of range [0,%d)", cfg.Set, cfg.Sets)
	}
	ring, err := netcluster.NewRing(cfg.Sets, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Config.IDF == nil {
		// Full-federation statistics, partition-only index: a query vector
		// must be the same no matter which shard scores it.
		cfg.Config.IDF = statsIDF(federationStats(fed))
	}
	part := NewFederation()
	for _, r := range fed.Relations() {
		if ring.Owner(r.ID) != cfg.Set {
			continue
		}
		if err := part.Add(r); err != nil {
			return nil, fmt.Errorf("semdisco: partitioning set %d: %w", cfg.Set, err)
		}
	}
	if part.Len() == 0 {
		return nil, fmt.Errorf("semdisco: the ring assigns no relations to set %d of %d; use fewer sets for this corpus", cfg.Set, cfg.Sets)
	}
	eng, err := Open(part, cfg.Config)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// NetCoordinatorConfig parameterizes NewNetCoordinator.
type NetCoordinatorConfig struct {
	// Config supplies the encoder parameters (Dim, Seed, Lexicon, IDF —
	// they must match the shards'), the method label, and the tracing/SLO
	// subsystems' tuning.
	Config
	// Slack widens each set's fetch to k+Slack before the merge; default 8.
	Slack int
	// CacheSize bounds the coordinator's (query, k) result LRU; 0 disables.
	CacheSize int
	// Vnodes is the placement ring's virtual-node count per set; it must
	// match the shards'.
	Vnodes int
	// AttemptTimeout bounds each replica attempt; an expired attempt fails
	// over to the next replica of the set. 0 leaves attempts bounded only
	// by the query's deadline.
	AttemptTimeout time.Duration
	// Hedge races a second replica against an attempt running past the
	// set's observed p95 latency.
	Hedge bool
	// MinHedgeDelay / HedgeAfter tune the hedge trigger.
	MinHedgeDelay time.Duration
	HedgeAfter    int
	// Transport carries coordinator→shard requests; nil means
	// http.DefaultTransport. Tests and benches pass a
	// *netcluster.FaultInjector.
	Transport http.RoundTripper
}

// NetCoordinator is the client-facing node of a networked cluster: a
// Cluster whose shards are replica sets of shard servers, built from the
// same federation the shards loaded. The cluster owns the shared encoder
// (queries are embedded exactly once, raw vectors fan out over the wire),
// the global insertion order the merge tie-breaks on, and the telemetry;
// the replica sets add failover, hedging and write fan-out. NetCoordinator
// adds only context-bound writes and the replica-set health view.
type NetCoordinator struct {
	*Cluster
}

// NewNetCoordinator builds a coordinator over replica sets:
// replicaSets[i] lists the base URLs of set i's members, each a shard
// server started with NewNetShard(fed, {Sets: len(replicaSets), Set: i}).
// fed must be the same federation (same relations, same insertion order)
// the shards partitioned, so encoder statistics and merge order agree.
func NewNetCoordinator(fed *Federation, replicaSets [][]string, cfg NetCoordinatorConfig) (*NetCoordinator, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	ring, err := netcluster.NewRing(len(replicaSets), cfg.Vnodes)
	if err != nil {
		return nil, fmt.Errorf("semdisco: %w", err)
	}
	model, reg, _ := federationEncoder(fed, cfg.Config)
	reg.SetHelps(netcluster.MetricHelp)
	newClient := func(u string) *netcluster.Client { return netcluster.NewClient(u, cfg.Transport) }
	shards := make([]clusterShard, len(replicaSets))
	for i, urls := range replicaSets {
		g, err := netcluster.NewGroup(i, urls, newClient, netcluster.GroupOptions{
			AttemptTimeout: cfg.AttemptTimeout,
			Hedge:          cfg.Hedge,
			MinHedgeDelay:  cfg.MinHedgeDelay,
			HedgeAfter:     cfg.HedgeAfter,
			Registry:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("semdisco: %w", err)
		}
		shards[i] = clusterShard{group: g}
	}
	order := make(map[string]int, fed.Len())
	relCounts := make([]int, len(replicaSets))
	for i, r := range fed.Relations() {
		order[r.ID] = i
		relCounts[ring.Owner(r.ID)]++
	}
	// The router's own per-shard timeout and same-shard hedging stay off:
	// each group bounds its attempts and hedges across replicas, which a
	// same-shard retry could never do for a wedged server.
	c, err := newCluster(ClusterConfig{
		Config:    cfg.Config,
		Shards:    len(replicaSets),
		Slack:     cfg.Slack,
		CacheSize: cfg.CacheSize,
	}, model, reg, shards, relCounts, order, fed.Len())
	if err != nil {
		return nil, err
	}
	c.ring = ring
	return &NetCoordinator{Cluster: c}, nil
}

// Add routes one new relation to its ring-owning set, ingesting it on
// every replica of that set, and appends it to the global merge order. A
// write applied on only some replicas returns *netcluster.WriteError.
func (nc *NetCoordinator) Add(ctx context.Context, r *Relation) error {
	return nc.AddContext(ctx, r)
}

// Delete tombstones a relation on every replica of its owning set.
func (nc *NetCoordinator) Delete(ctx context.Context, id string) error {
	return nc.DeleteContext(ctx, id)
}

// Update replaces a relation's contents on every replica of its owning
// set and moves it to the end of the global merge order, matching
// single-engine Update semantics.
func (nc *NetCoordinator) Update(ctx context.Context, r *Relation) error {
	return nc.UpdateContext(ctx, r)
}

// NumSets reports the replica-set (partition) count.
func (nc *NetCoordinator) NumSets() int { return nc.NumShards() }

// NetCoordinatorStats is a coordinator's health snapshot: the router's
// federated view (per-set latency, cache, degradation) plus each replica
// set's failover counters.
type NetCoordinatorStats struct {
	Sets   int                     `json:"sets"`
	Router ClusterStats            `json:"router"`
	Groups []netcluster.GroupStats `json:"groups"`
}

// Stats snapshots router and replica-set health.
func (nc *NetCoordinator) Stats() NetCoordinatorStats {
	s := NetCoordinatorStats{Sets: len(nc.shards), Router: nc.Cluster.Stats()}
	for _, sh := range nc.shards {
		s.Groups = append(s.Groups, sh.group.Stats())
	}
	return s
}
