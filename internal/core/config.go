// Package core implements the RStore engine (paper §2.4): the application-
// server layer that sits on the distributed key-value store and provides
// versioned commits, full/partial version retrieval, record retrieval, and
// record-evolution queries over chunked, deduplicated, optionally compressed
// record storage.
//
// Architecture mirrors the paper's three modules:
//
//   - Data Ingest: Commit assigns version ids, derives composite-key deltas,
//     and parks them in the delta store (a KVS table) for batching.
//   - Data Placement: Materialize runs an offline partitioning algorithm
//     over everything; the online path (§4) partitions each batch of new
//     versions as it closes, updating chunk maps and projections
//     incrementally and rewriting each touched chunk map once per batch.
//   - Query Processing: the two lossy projections (version→chunks,
//     key→chunks) pick chunks, MultiGet fetches them in parallel, and chunk
//     maps extract the requested records; pending (not yet partitioned)
//     versions are served by overlaying delta-store contents on the nearest
//     partitioned ancestor.
//
// A Store is safe for concurrent use, but it must be the only writer of its
// underlying cluster: commits, flushes, and Materialize coordinate through
// the Store's own locks, not through the storage layer, which offers no
// cross-client atomicity (see the internal/engine and internal/kvstore
// package comments on the one-logical-writer contract). Queries return
// streaming cursors whose records are private copies — callers may retain
// them freely.
//
// The layer diagram lives in docs/ARCHITECTURE.md; every on-disk format the
// engine persists through the cluster (manifest v2, delta store, chunk
// generations) is specified in docs/FORMATS.md.
package core

import (
	"context"
	"time"

	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// Config configures a Store.
type Config struct {
	// KV is the backing cluster. Nil creates a private single-node store
	// whose backend Engine and DataDir select; the Store then owns that
	// cluster and closes it on Close.
	KV *kvstore.Store
	// Engine selects the storage backend of the private cluster created
	// when KV is nil: kvstore.EngineMemory (default), kvstore.EngineLSM,
	// or kvstore.EngineRemote. Ignored when KV is set.
	Engine string
	// DataDir is the data directory for disk-backed engines of the private
	// cluster. Required when Engine is kvstore.EngineLSM.
	DataDir string
	// NodeAddrs lists the storage daemon addresses of the private cluster
	// (one node per address, in ring order). Required when Engine is
	// kvstore.EngineRemote.
	NodeAddrs []string
	// ReplicationFactor is the number of replicas per key in the private
	// cluster (default 1; capped at the node count). With more than one
	// replica the cluster self-heals divergence via replication repair —
	// see Repair. Ignored when KV is set.
	ReplicationFactor int
	// Repair tunes the private cluster's replication repair (read repair,
	// hinted handoff, tombstone GC); the zero value gives defaults.
	// Ignored when KV is set.
	Repair kvstore.RepairOptions
	// Partitioner is the chunking algorithm; nil means BottomUp.
	Partitioner partition.Algorithm
	// ChunkCapacity is the nominal chunk size C in bytes (default 1 MiB,
	// the paper's operating point).
	ChunkCapacity int
	// SubChunkK is the max records compressed together per sub-chunk
	// (paper's k); ≤1 disables record-level compression. Applied by
	// Materialize; the online path places records uncompressed (§4 notes
	// online re-compression is future work).
	SubChunkK int
	// BatchSize is the number of pending versions that triggers online
	// partitioning (§4's user-configurable batch size). ≤0 disables
	// automatic flushing; call Flush explicitly.
	BatchSize int
	// RepartitionEvery triggers a full offline repartition (Materialize)
	// after every N online batches — automating the "online partitioning
	// ... combined with a full repartitioning periodically" strategy §4
	// calls pragmatic. ≤0 disables automatic repartitioning.
	RepartitionEvery int
	// Slack is the chunk overfill allowance (default 0.25 per §2.5).
	Slack float64
	// ReadOnly rejects all mutations (Commit/Flush/Materialize/SetBranch).
	// The paper notes multiple application servers may front one cluster
	// with the caveat that shared mutable state is unsupported (§2.4);
	// read-only replicas opened with Load are the safe multi-AS deployment.
	ReadOnly bool
	// CacheBytes bounds an LRU cache of chunk entries in the application
	// server: cache hits skip the KVS round trip entirely (the §2.3
	// per-request cost). 0 disables caching. Placement changes invalidate
	// affected entries.
	CacheBytes int64
	// QueryFetchBatch is the number of chunks a streaming query fetches
	// from the KVS per round (default 8). Smaller batches surface the
	// first records sooner and bound per-query server memory tighter;
	// larger batches recover more of the fetch parallelism of the old
	// materialize-everything path.
	QueryFetchBatch int
}

// withDefaults fills in defaults; ownsKV reports that a private cluster was
// created for this store and should be closed with it. ctx bounds the
// private cluster's open (remote geometry probe, hint recovery).
func (c Config) withDefaults(ctx context.Context) (Config, bool, error) {
	ownsKV := false
	if c.KV == nil {
		nodes := 1
		if c.Engine == kvstore.EngineRemote {
			nodes = len(c.NodeAddrs) // the address list is the cluster shape
		}
		kv, err := kvstore.Open(ctx, kvstore.Config{
			Nodes:             nodes,
			ReplicationFactor: c.ReplicationFactor,
			Cost:              kvstore.DefaultCostModel(),
			Engine:            c.Engine,
			Dir:               c.DataDir,
			NodeAddrs:         c.NodeAddrs,
			Repair:            c.Repair,
		})
		if err != nil {
			return c, false, err
		}
		c.KV = kv
		ownsKV = true
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.BottomUp{}
	}
	if c.ChunkCapacity <= 0 {
		c.ChunkCapacity = 1 << 20
	}
	if c.SubChunkK < 1 {
		c.SubChunkK = 1
	}
	if c.Slack <= 0 {
		c.Slack = partition.DefaultSlack
	}
	if c.QueryFetchBatch <= 0 {
		c.QueryFetchBatch = 8
	}
	return c, ownsKV, nil
}

// KVS table names used by the engine.
const (
	// TableChunks holds chunk payloads concatenated with their chunk maps,
	// keyed by chunk id — one fetch returns both, matching the paper's
	// placement of M_Ci alongside each chunk.
	TableChunks = "chunks"
	// TableDeltaStore holds pending version deltas awaiting batch
	// placement (§4's write store).
	TableDeltaStore = "deltastore"
	// TableMeta holds the manifest (graph structure, branches, counters).
	TableMeta = "meta"
)

// QueryStats reports the cost of one retrieval operation.
type QueryStats struct {
	// Span is the number of chunks (or delta-store entries) fetched.
	Span int
	// Requests is the number of point requests issued to the KVS.
	Requests int
	// BytesRead is the response volume.
	BytesRead int64
	// SimElapsed is the simulated retrieval time under the cluster's cost
	// model (request overhead + transfer + client-side scan).
	SimElapsed time.Duration
	// Records is the number of records returned.
	Records int
	// WastedChunks counts fetched chunks that contained no requested
	// record — the lossy-projection artifact of §2.4.
	WastedChunks int
}

func (q *QueryStats) add(other QueryStats) {
	q.Span += other.Span
	q.Requests += other.Requests
	q.BytesRead += other.BytesRead
	q.SimElapsed += other.SimElapsed
	q.Records += other.Records
	q.WastedChunks += other.WastedChunks
}

// Change is the user-facing commit payload: new values for inserted or
// modified keys, and deleted keys. The engine derives the composite-key
// delta (old-version deletions) itself, so clients need not track origin
// versions.
type Change struct {
	Puts    map[types.Key][]byte
	Deletes []types.Key
}
