// Package engine defines the storage-backend seam of the simulated cluster:
// every kvstore node owns one Backend and delegates all data operations to
// it. The paper's design point is that RStore layers on an off-the-shelf
// key-value substrate (§2.4); this interface is our substrate boundary, so
// alternative engines (in-memory maps, a log-structured disk store, and in
// the future pebble/remote/tiered backends) can be swapped under the same
// cluster, core, and query layers.
//
// Every data operation takes a context.Context as its first parameter and
// must honor cancellation and deadlines: an implementation that can block —
// on the network, on disk, or on a long scan — returns (an error wrapping)
// ctx.Err() promptly once the context ends, instead of finishing work nobody
// is waiting for. Purely in-memory implementations may only check the
// context at natural yield points (per scanned entry); they must still not
// start new work under a dead context.
//
// Implementations must be safe for concurrent use. Values passed to Put and
// BatchPut must be copied (or otherwise made immune to caller mutation)
// before the call returns, and values returned by Get must not alias backend
// state. Scan is the one exception: the values it passes to the callback may
// alias internal buffers and must not be retained or mutated.
//
// # Deployment caveat: one logical writer
//
// A Backend serializes the individual operations it receives, but the seam
// offers no compare-and-swap or compare-and-delete: read-then-write
// sequences issued by DIFFERENT cluster clients against the same backend
// can interleave. The layers above (kvstore's replication repair, core's
// flush path) therefore assume each backend is driven by one logical
// writer at a time — one cluster client per data directory (lsm
// enforces this with an exclusive flock) or per remote daemon. Multiple
// concurrent *reading* clients are fine; concurrent writing clients are
// outside the contract (see the tombstone-GC follow-up in ROADMAP.md).
//
// Backends that reclaim dead storage additionally implement the optional
// Compactor interface; callers discover it with a type assertion.
package engine

import (
	"context"
	"errors"
)

// ErrUnavailable classifies a backend failure as transient unavailability:
// the node could not be reached (connection refused, dial timeout, a
// connection that died mid-request) or is administratively down, as opposed
// to a hard engine error (corruption, I/O failure, closed backend) that
// reached the node and failed there. Layers above route around unavailable
// replicas and retry; hard errors abort the operation. Implementations wrap
// transport-level failures so errors.Is(err, ErrUnavailable) holds.
//
// A context that ends mid-operation also surfaces wrapped in ErrUnavailable
// by the remote backend (the node was not proven reachable), with the
// context's error preserved in the chain so errors.Is(err,
// context.DeadlineExceeded) (or context.Canceled) holds too.
var ErrUnavailable = errors.New("engine: backend unavailable")

// Entry is one key/value pair of a batched write.
type Entry struct {
	Key   string
	Value []byte
}

// Backend is a per-node storage engine: a durable (or simulated) map of
// (table, key) → value with batched writes and full-table scans.
type Backend interface {
	// Put stores value under (table, key), overwriting any previous value.
	Put(ctx context.Context, table, key string, value []byte) error

	// Get returns the value under (table, key). The second result reports
	// whether the key was present; the error is reserved for engine
	// failures (I/O errors, closed backend), not for missing keys.
	Get(ctx context.Context, table, key string) ([]byte, bool, error)

	// Delete removes (table, key). Deleting a missing key is a no-op.
	Delete(ctx context.Context, table, key string) error

	// BatchPut applies all entries to one table atomically with respect to
	// durability: a durable backend must not acknowledge the batch until
	// every entry is on stable storage (fsync-on-batch). Entries are applied
	// in order, so a later entry for the same key wins. Cancellation must
	// not break the atomicity contract: a batch either fails before any
	// entry is durable or completes whole.
	BatchPut(ctx context.Context, table string, entries []Entry) error

	// Scan visits every key/value of a table in unspecified order until fn
	// returns false, the table is exhausted, or ctx ends (the scan then
	// returns ctx's error). Values passed to fn may alias internal storage;
	// fn must not retain or mutate them.
	Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error

	// Tables lists the tables that currently hold at least one key, in
	// unspecified order.
	Tables(ctx context.Context) ([]string, error)

	// BytesStored reports the resident live payload volume: the summed
	// length of all current values, excluding per-key overhead, dead
	// versions, and tombstones.
	BytesStored() int64

	// Close releases the backend's resources, flushing anything buffered to
	// stable storage first. Operations after Close fail.
	Close() error
}

// MultiGetter is the optional batched-read extension of Backend: MultiGet
// resolves many keys of one table in a single call, returning values and
// presence flags in request order (values[i] and present[i] answer keys[i]).
// Returned values follow the Get contract — they must not alias backend
// state. The error is all-or-nothing: a failing backend fails the whole
// batch rather than returning partial results.
//
// The remote wire client implements it (one network round trip for the
// whole batch instead of one per key); callers discover it by type
// assertion and fall back to per-key Get when it is absent.
type MultiGetter interface {
	MultiGet(ctx context.Context, table string, keys []string) (values [][]byte, present []bool, err error)
}

// PrefixGetter is the optional header-read extension of Backend: GetPrefix
// returns at most the first n bytes (n ≥ 0) of the value under (table,
// key) — exactly Get's result cut to n bytes — with Get's presence and
// no-aliasing contract. The replication layer reads only the 9-byte LWW
// envelope header from every replica but the one serving a key's value,
// so an engine implements it when a prefix read is cheaper than a whole
// one (lsm copies n bytes and leaves its row cache alone). Callers reach
// it through the GetPrefix helper, which falls back to Get-and-truncate.
type PrefixGetter interface {
	GetPrefix(ctx context.Context, table, key string, n int) ([]byte, bool, error)
}

// GetPrefix reads at most the first n bytes of (table, key) from be:
// through PrefixGetter when be implements it, else by cutting a whole Get.
func GetPrefix(ctx context.Context, be Backend, table, key string, n int) ([]byte, bool, error) {
	if pg, ok := be.(PrefixGetter); ok {
		return pg.GetPrefix(ctx, table, key, n)
	}
	v, ok, err := be.Get(ctx, table, key)
	if len(v) > n {
		v = v[:n:n]
	}
	return v, ok, err
}

// ErrNoCompaction reports that a backend does not implement Compactor (or,
// over the wire, that the daemon's backend does not). Callers that compact
// opportunistically match it with errors.Is and move on.
var ErrNoCompaction = errors.New("engine: backend does not support compaction")

// CompactionStats is a snapshot of a backend's storage-reclaim state.
// DiskBytes-LiveBytes estimates the volume a full compaction could reclaim:
// dead records are weighed by key and value length plus a fixed per-record
// charge, not by their on-disk encoding (lsm prefix-compresses keys and
// writes index and filter blocks), so the estimate is close but not exact.
type CompactionStats struct {
	// DiskBytes is the total size of the backend's data files (for lsm:
	// the WAL plus every SSTable).
	DiskBytes int64
	// LiveBytes is DiskBytes minus the dead weight: overwritten values,
	// tombstones and superseded records, in the WAL as in sealed files.
	// Right after a full compaction nothing is dead and LiveBytes equals
	// DiskBytes.
	LiveBytes int64
	// CompactedBytes is the cumulative volume reclaimed by compaction over
	// the lifetime of this backend instance. A full compaction with no
	// concurrent writes grows it by exactly the drop in DiskBytes.
	CompactedBytes int64
	// Segments is the number of data files backing the store (for lsm:
	// SSTables plus the WAL).
	Segments int
}

// LiveRatio is LiveBytes/DiskBytes — the fraction of on-disk storage that
// is live. An empty backend reports 1 (nothing is dead).
func (s CompactionStats) LiveRatio() float64 {
	if s.DiskBytes <= 0 {
		return 1
	}
	return float64(s.LiveBytes) / float64(s.DiskBytes)
}

// ErrNoReset reports that a backend does not implement Resetter (or, over
// the wire, that the daemon's backend does not).
var ErrNoReset = errors.New("engine: backend does not support reset")

// Resetter is the optional wipe extension of Backend: Reset drops every
// table and key, returning the backend to its freshly-opened empty state
// without closing it. Benchmarks and end-to-end tests use it to reuse a
// running daemon between phases instead of restarting the process.
// Durable backends make the wipe crash-safe: a crash mid-reset recovers to
// either the old contents or empty, never to a half-wiped hybrid that
// resurrects deleted data.
type Resetter interface {
	Reset(ctx context.Context) error
}

// Compactor is the optional storage-reclaim extension of Backend: log- or
// LSM-structured engines accumulate dead bytes (overwritten values,
// tombstones) that only a merge can give back to the filesystem. Callers
// obtain it by type assertion; engines with nothing to compact (in-memory
// maps) simply do not implement it.
type Compactor interface {
	// Compact merges dead-heavy storage, rewriting only live records, and
	// returns the post-compaction stats. It is safe to call concurrently
	// with reads and writes, must be crash-safe (a crash mid-compaction
	// loses no acknowledged write), and is a no-op when nothing can be
	// reclaimed.
	Compact(ctx context.Context) (CompactionStats, error)

	// CompactionStats reports the current reclaim state without compacting.
	CompactionStats(ctx context.Context) (CompactionStats, error)
}
