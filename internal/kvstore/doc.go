// Package kvstore implements the distributed key-value substrate that RStore
// layers on (paper §2.4 "Backend Key-value Store"). It reproduces the
// properties RStore depends on — basic get/put, key partitioning across
// nodes, replication, parallel multi-key fetch — as a cluster of storage
// nodes behind a consistent-hash ring. Each node routes through a transport:
// local (an in-process engine.Backend plus a failure-injection gate, with a
// calibrated network cost model driving a virtual clock so experiments
// report Cassandra-like retrieval times deterministically) or remote (the
// wire client from internal/engine/remote against a real rstore-node
// daemon).
//
// # Replication, LWW envelopes, and repair
//
// Every value the cluster stores is wrapped in a 9-byte last-write-wins
// envelope (flag + timestamp; deletes are tombstones — see lww.go and
// docs/FORMATS.md), so a replica that was down while its peers accepted
// writes is outvoted on read instead of serving stale bytes. The repair
// subsystem (repair.go) then converges losers on disk: read repair writes
// the winning envelope back to stale live replicas, hinted handoff parks
// writes for down replicas in the durable !hints table and replays them on
// recovery, and fully-acknowledged tombstones are physically collected.
//
// # One logical writer per cluster
//
// A Store assumes it is the only cluster client mutating its backends: the
// engine seam has no compare-and-swap, so the read-then-write sequences
// repair and tombstone GC issue would interleave under concurrent writing
// clients (see the internal/engine package comment). Deployments enforce
// this with the lsm data directory flock locally and by convention (one
// rstore-server per daemon set) remotely; the !cluster table pins each
// daemon's ring position, the cluster shape, and the replication factor so
// a client opening with a reordered/resized address list or a different
// -rf is refused instead of silently corrupting placement or replication.
//
// # Value ownership
//
// Get and MultiGet return private copies the caller may retain and mutate.
// Scan hands the callback values that may alias backend buffers — copy
// before retaining (the envelopes are stripped either way). Entry values
// passed to Put/BatchPut are not retained after the call returns.
//
// # Storage reclaim
//
// Backends that implement engine.Compactor (lsm, locally or behind a
// daemon) expose their dead-byte accounting through Stats (DiskBytes,
// LiveBytes, LiveRatio, CompactedBytes) and are compacted cluster-wide by
// Store.Compact; engines without compaction are skipped.
package kvstore
