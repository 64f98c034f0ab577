package kvstore

import (
	"context"

	"rstore/internal/engine"
)

// node is a single storage server of the cluster. All data operations
// route through its transport — a local engine.Backend behind the
// failure-injection gate, or a remote daemon behind a wire client — so the
// Store's replication and routing logic cannot tell a simulated node from
// a real one. Isolation guarantees (callers never alias node state) are
// the backend's contract; see engine.Backend.
type node struct {
	id int
	tr transport
}

func newNode(id int, tr transport) *node {
	return &node{id: id, tr: tr}
}

func (n *node) put(ctx context.Context, table, key string, value []byte) error {
	return n.tr.put(ctx, table, key, value)
}

func (n *node) batchPut(ctx context.Context, table string, entries []engine.Entry) error {
	return n.tr.batchPut(ctx, table, entries)
}

func (n *node) get(ctx context.Context, table, key string) ([]byte, bool, error) {
	return n.tr.get(ctx, table, key)
}

// multiGet reads many keys in one transport call (a single wire round trip
// on remote nodes); values and presence flags come back in request order.
// prefix bounds the bytes read per key (see transport.multiGet).
func (n *node) multiGet(ctx context.Context, table string, keys []string, prefix []int) ([][]byte, []bool, error) {
	return n.tr.multiGet(ctx, table, keys, prefix)
}

// del physically removes (table, key) from this node's backend. Only the
// repair subsystem calls it (tombstone GC, hint cleanup); the replication
// layer's Delete writes tombstones instead.
func (n *node) del(ctx context.Context, table, key string) error {
	return n.tr.del(ctx, table, key)
}

// scan visits every key/value of a table. Values passed to fn may alias
// backend storage; fn must not retain or mutate them.
func (n *node) scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	return n.tr.scan(ctx, table, fn)
}

func (n *node) tables(ctx context.Context) ([]string, error) {
	return n.tr.tables(ctx)
}

// stored reports the node's resident bytes; a down or unreachable node
// errors (unavailable) instead of touching storage it cannot see.
func (n *node) stored(ctx context.Context) (int64, error) {
	return n.tr.stored(ctx)
}

// compact reclaims dead storage on the node's backend; compactStats reads
// the reclaim state without compacting. Backends without compaction return
// engine.ErrNoCompaction.
func (n *node) compact(ctx context.Context) (engine.CompactionStats, error) {
	return n.tr.compact(ctx)
}

func (n *node) compactStats(ctx context.Context) (engine.CompactionStats, error) {
	return n.tr.compactStats(ctx)
}

// reset wipes the node's backend empty. Backends without reset support
// return engine.ErrNoReset.
func (n *node) reset(ctx context.Context) error {
	return n.tr.reset(ctx)
}

// hashTree and hashRange serve the anti-entropy digest exchange. Backends
// without hash support return engine.ErrNoHashRange.
func (n *node) hashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	return n.tr.hashTree(ctx, table, fanout)
}

func (n *node) hashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	return n.tr.hashRange(ctx, table, fanout, bucket)
}

func (n *node) isUp() bool {
	return n.tr.available()
}
