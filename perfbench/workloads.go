package main

import (
	"time"

	"semdisco"
)

// workload is one traffic mix against one system shape.
type workload struct {
	name string
	why  string
	// System shape: method, corpus scale (relative to the WikiTables
	// profile's 600 relations) and topology.
	method     semdisco.Method
	scale      float64
	netcluster bool
	// zipf skews the query stream; otherwise queries are uniform over the
	// pool.
	zipf bool
	// setups is how many times a run sets the system up; setup_s is the
	// median and the last one serves the load.
	setups int
	// readRate and mixRate are the fixed offered rates (requests/s) of the
	// read-only and the mixed open-loop phases, each 25-30% of the
	// closed-loop peak measured on a 2-vCPU x86-64 VM: at half the peak,
	// CPU taken by other tenants of the machine queues enough requests to
	// move the tail percentiles by several times between runs.
	readRate, mixRate float64
	// writeFrac is the share of writes in the mixed phase.
	writeFrac float64
	// ingest makes the mixed phase's writes adds of one-cell relations,
	// which stay below the mutable segment's seal threshold. On
	// the read workloads the phase exists to time writes, not index
	// rebuilds: updates and deletes tombstone relations, and at the default
	// 20% dead share compaction rebuilds the whole ANNS or CTS index.
	ingest bool
	// shares of --seconds given to the read-only open loop, the
	// closed-loop peak, the batch phase and the mixed open loop. The open
	// loops send rate × share × seconds requests, so they run longer only
	// when the system falls behind.
	shares [4]float64
	// churnLatency takes the search latencies from the mixed phase, not the
	// read-only one.
	churnLatency bool
}

const (
	phaseRead = iota
	phaseClosed
	phaseBatch
	phaseMix
)

// batchSize is the block size of the batch phase.
const batchSize = 32

var workloads = []*workload{
	{
		name: "anns-read",
		why: "ANNS over WikiTables x1.0 (600 relations), uniform reads and 32-query batches: the hnsw/vectordb/pq walk dominates; " +
			"a closing phase of small adds gives write latency without index rebuilds",
		method: semdisco.ANNS, scale: 1.0, setups: 1,
		readRate: 300, mixRate: 300, writeFrac: 0.9, ingest: true,
		shares: [4]float64{0.45, 0.2, 0.1, 0.25},
	},
	{
		name: "exs-churn",
		why: "ExS over x0.15 (90 relations, vectors fit in L2), 80% reads and 20% add/update/delete: " +
			"httpapi, embed, telemetry and segment writes dominate, seals and compactions run, no graph walk does",
		method: semdisco.ExS, scale: 0.15, setups: 9,
		readRate: 700, mixRate: 800, writeFrac: 0.2, churnLatency: true,
		shares: [4]float64{0.12, 0.1, 0.1, 0.68},
	},
	{
		name: "cts-netcluster",
		why: "CTS in a loopback netcluster (2 sets x 2 replicas) behind a coordinator with a 64-entry result cache, x0.5 corpus, " +
			"Zipf reads over 350 queries: the only load on the router, wire and medoid probe",
		method: semdisco.CTS, scale: 0.5, netcluster: true, zipf: true, setups: 1,
		readRate: 250, mixRate: 250, writeFrac: 0.9, ingest: true,
		shares: [4]float64{0.45, 0.15, 0.1, 0.3},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ops is the request count of an open-loop phase.
func (w *workload) ops(phase int, rate float64, seconds int) int {
	return int(rate * w.shares[phase] * float64(seconds))
}

func (w *workload) dur(phase int, seconds int) time.Duration {
	return time.Duration(w.shares[phase] * float64(seconds) * float64(time.Second))
}
