package kvstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"rstore/internal/engine"
	"rstore/internal/engine/remote"
)

// transport is what a node routes every operation through: a local backend
// fronted by the failure-injection flag, or a remote storage node reached
// over the wire. The seam keeps the Store's routing logic identical for
// both — a node being "down" is one error class (engine.ErrUnavailable)
// whether it comes from an injected flag or a refused connection.
type transport interface {
	// The replication layer deletes by writing LWW tombstones (see
	// lww.go); del is the physical removal beneath that model, used only
	// by the repair subsystem (tombstone GC, hint-log cleanup — see
	// repair.go), never to delete user data directly.
	put(ctx context.Context, table, key string, value []byte) error
	get(ctx context.Context, table, key string) ([]byte, bool, error)
	// multiGet reads many keys in one call: values and presence flags in
	// request order. prefix[i] > 0 asks for only the first prefix[i] bytes
	// of keys[i] (an envelope-header read), 0 for the whole value; nil
	// reads everything whole. The prefix is a budget, not a promise: a
	// local backend with engine.MultiGetter returns whole values. Over the
	// wire this is a single round trip (OpMultiGet); locally it serves
	// straight from the backend. All-or-nothing: a failing node fails the
	// whole batch, never returns partial results.
	multiGet(ctx context.Context, table string, keys []string, prefix []int) ([][]byte, []bool, error)
	del(ctx context.Context, table, key string) error
	batchPut(ctx context.Context, table string, entries []engine.Entry) error
	// scan visits every key/value of a table. Values passed to fn may alias
	// transport-internal buffers; fn must not retain or mutate them.
	scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error
	tables(ctx context.Context) ([]string, error)
	// stored reports resident bytes; unavailable nodes error instead of
	// blocking on (or lying about) storage they cannot see.
	stored(ctx context.Context) (int64, error)
	// compact reclaims dead storage on the node and returns the
	// post-compaction stats; compactStats reads them without compacting.
	// Nodes whose backend does not implement engine.Compactor return
	// engine.ErrNoCompaction.
	compact(ctx context.Context) (engine.CompactionStats, error)
	compactStats(ctx context.Context) (engine.CompactionStats, error)
	// reset wipes the node's backend empty (engine.Resetter). Nodes whose
	// backend does not implement it return engine.ErrNoReset.
	reset(ctx context.Context) error
	// hashTree and hashRange serve the anti-entropy digest exchange
	// (engine.HashRanger): a fanout-bucket hash tree of one table, and the
	// key/entry-hash listing of one bucket. Nodes whose backend does not
	// implement it return engine.ErrNoHashRange.
	hashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error)
	hashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error)
	// available is a cheap best-effort liveness hint used to pick read
	// replicas; the authoritative signal is an ErrUnavailable result.
	available() bool
	// injectFault forces the node down/up for failure-injection tests.
	injectFault(up bool) error
	// breakerStats reports the node's failure-detector state; ok is false
	// for transports without one (local nodes fail via the injection flag,
	// not a breaker).
	breakerStats() (remote.BreakerStats, bool)
	close() error
}

// errNodeDown reports an operation against a node marked down by failure
// injection. It is one cause of unavailability — real transports produce
// others (connection refused, node process gone) — and the Store routes
// around all of them uniformly via isUnavailable.
var errNodeDown = fmt.Errorf("kvstore: node down (injected): %w", engine.ErrUnavailable)

// isUnavailable classifies an error as transient node unavailability:
// routed around by replication rather than surfaced, in contrast to hard
// engine errors (corruption, I/O failure), which abort the operation.
func isUnavailable(err error) bool { return errors.Is(err, engine.ErrUnavailable) }

// localTransport fronts an in-process engine.Backend with the up/down flag
// of failure-injection tests.
type localTransport struct {
	mu sync.RWMutex // guards up
	up bool
	be engine.Backend
}

func newLocalTransport(be engine.Backend) *localTransport {
	return &localTransport{up: true, be: be}
}

func (t *localTransport) gate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.up {
		return errNodeDown
	}
	return nil
}

func (t *localTransport) put(ctx context.Context, table, key string, value []byte) error {
	if err := t.gate(); err != nil {
		return err
	}
	return t.be.Put(ctx, table, key, value)
}

func (t *localTransport) get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if err := t.gate(); err != nil {
		return nil, false, err
	}
	return t.be.Get(ctx, table, key)
}

func (t *localTransport) multiGet(ctx context.Context, table string, keys []string, prefix []int) ([][]byte, []bool, error) {
	if err := t.gate(); err != nil {
		return nil, nil, err
	}
	if mg, ok := t.be.(engine.MultiGetter); ok {
		// One batched call beats per-key prefix reads; its values come back
		// whole, which a header read's caller tolerates.
		return mg.MultiGet(ctx, table, keys)
	}
	values := make([][]byte, len(keys))
	present := make([]bool, len(keys))
	for i, k := range keys {
		var v []byte
		var ok bool
		var err error
		if prefix != nil && prefix[i] > 0 {
			v, ok, err = engine.GetPrefix(ctx, t.be, table, k, prefix[i])
		} else {
			v, ok, err = t.be.Get(ctx, table, k)
		}
		if err != nil {
			return nil, nil, err
		}
		values[i], present[i] = v, ok
	}
	return values, present, nil
}

func (t *localTransport) del(ctx context.Context, table, key string) error {
	if err := t.gate(); err != nil {
		return err
	}
	return t.be.Delete(ctx, table, key)
}

func (t *localTransport) batchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := t.gate(); err != nil {
		return err
	}
	return t.be.BatchPut(ctx, table, entries)
}

func (t *localTransport) scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if err := t.gate(); err != nil {
		return err
	}
	return t.be.Scan(ctx, table, fn)
}

func (t *localTransport) tables(ctx context.Context) ([]string, error) {
	if err := t.gate(); err != nil {
		return nil, err
	}
	return t.be.Tables(ctx)
}

func (t *localTransport) stored(context.Context) (int64, error) {
	// The gate applies here too: a down node's storage must not be
	// touched — with a real dead backend the call could block or fault.
	if err := t.gate(); err != nil {
		return 0, err
	}
	return t.be.BytesStored(), nil
}

func (t *localTransport) compact(ctx context.Context) (engine.CompactionStats, error) {
	if err := t.gate(); err != nil {
		return engine.CompactionStats{}, err
	}
	c, ok := t.be.(engine.Compactor)
	if !ok {
		return engine.CompactionStats{}, engine.ErrNoCompaction
	}
	return c.Compact(ctx)
}

func (t *localTransport) compactStats(ctx context.Context) (engine.CompactionStats, error) {
	if err := t.gate(); err != nil {
		return engine.CompactionStats{}, err
	}
	c, ok := t.be.(engine.Compactor)
	if !ok {
		return engine.CompactionStats{}, engine.ErrNoCompaction
	}
	return c.CompactionStats(ctx)
}

func (t *localTransport) reset(ctx context.Context) error {
	if err := t.gate(); err != nil {
		return err
	}
	r, ok := t.be.(engine.Resetter)
	if !ok {
		return engine.ErrNoReset
	}
	return r.Reset(ctx)
}

func (t *localTransport) hashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	if err := t.gate(); err != nil {
		return engine.TreeDigest{}, err
	}
	hr, ok := t.be.(engine.HashRanger)
	if !ok {
		return engine.TreeDigest{}, engine.ErrNoHashRange
	}
	return hr.HashTree(ctx, table, fanout)
}

func (t *localTransport) hashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	if err := t.gate(); err != nil {
		return nil, err
	}
	hr, ok := t.be.(engine.HashRanger)
	if !ok {
		return nil, engine.ErrNoHashRange
	}
	return hr.HashRange(ctx, table, fanout, bucket)
}

func (t *localTransport) available() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.up
}

func (t *localTransport) injectFault(up bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.up = up
	return nil
}

func (t *localTransport) breakerStats() (remote.BreakerStats, bool) {
	return remote.BreakerStats{}, false
}

func (t *localTransport) close() error { return t.be.Close() }

// remoteTransport routes a node's operations to a storage daemon over TCP.
// Liveness is discovered per operation (the client retries and classifies),
// so there is no flag to flip: failure injection means killing the real
// process.
type remoteTransport struct {
	c *remote.Client
}

func (t *remoteTransport) put(ctx context.Context, table, key string, value []byte) error {
	return t.c.Put(ctx, table, key, value)
}

func (t *remoteTransport) get(ctx context.Context, table, key string) ([]byte, bool, error) {
	return t.c.Get(ctx, table, key)
}

func (t *remoteTransport) multiGet(ctx context.Context, table string, keys []string, prefix []int) ([][]byte, []bool, error) {
	return t.c.MultiGetPrefix(ctx, table, keys, prefix)
}

func (t *remoteTransport) del(ctx context.Context, table, key string) error {
	return t.c.Delete(ctx, table, key)
}

func (t *remoteTransport) batchPut(ctx context.Context, table string, entries []engine.Entry) error {
	return t.c.BatchPut(ctx, table, entries)
}

func (t *remoteTransport) scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	return t.c.Scan(ctx, table, fn)
}

func (t *remoteTransport) tables(ctx context.Context) ([]string, error) { return t.c.Tables(ctx) }

func (t *remoteTransport) stored(ctx context.Context) (int64, error) { return t.c.Stored(ctx) }

func (t *remoteTransport) compact(ctx context.Context) (engine.CompactionStats, error) {
	return t.c.Compact(ctx)
}

func (t *remoteTransport) compactStats(ctx context.Context) (engine.CompactionStats, error) {
	return t.c.CompactionStats(ctx)
}

func (t *remoteTransport) reset(ctx context.Context) error { return t.c.Reset(ctx) }

func (t *remoteTransport) hashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	return t.c.HashTree(ctx, table, fanout)
}

func (t *remoteTransport) hashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	return t.c.HashRange(ctx, table, fanout, bucket)
}

// available reflects the wire client's failure detector: a node in
// probation (circuit breaker open) is reported down so read placement
// steers around it, a node not in probation is optimistically up. The
// authoritative signal is still the per-operation result — the read paths
// all fall back across replicas when an attempt comes back unavailable.
func (t *remoteTransport) available() bool { return !t.c.BreakerOpen() }

func (t *remoteTransport) injectFault(bool) error {
	return fmt.Errorf("kvstore: failure injection is not supported for remote node %s (stop the daemon instead)", t.c.Addr())
}

func (t *remoteTransport) breakerStats() (remote.BreakerStats, bool) {
	return t.c.BreakerStats(), true
}

func (t *remoteTransport) close() error { return t.c.Close() }

// SplitNodeAddrs parses a comma-separated daemon address list into
// Config.NodeAddrs form, trimming whitespace and dropping empty elements.
// The CLIs share it so -node-addrs handling cannot diverge.
func SplitNodeAddrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
