package kvstore

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/codec"
	"rstore/internal/engine"
)

// Replication repair: the subsystem that makes replicas converge instead of
// staying wrong on disk.
//
// LWW envelopes (lww.go) let reads outvote a stale replica, but outvoting
// is camouflage, not a cure — the losing replica keeps serving old bytes
// from its backend forever, and every read of the key pays the conflict
// resolution again. Dynamo-style repair fixes the divergence at the source:
//
//   - Read repair: when a replicated read (lwwGet, and through it Get and
//     MultiGet) or a replicated Scan observes a live replica returning an
//     older version than the LWW winner — or missing the key, or carrying a
//     value a tombstone deleted — the winning envelope is written back to
//     the losing replicas asynchronously, through a small worker pool with
//     per-key deduplication and a bounded queue (an unmergeable backlog is
//     dropped and counted, never allowed to stall reads).
//
//   - Hinted handoff: a write that had to skip a down replica parks a hint
//     (target node, table, key, winning envelope) durably in the !hints
//     table of a replica that did take the write — through the engine seam,
//     so lsm/remote deployments keep hints across client restarts — and
//     a drain loop replays the hints (with per-target exponential backoff)
//     once the target is observed up again. A restarted node therefore
//     converges without waiting to be read.
//
//   - Tombstone GC: deletes write tombstones so lagging replicas cannot
//     resurrect data, but a tombstone whose delete every replica has
//     acknowledged protects nothing. Acknowledgments are tracked across the
//     delete itself, hint replays, and read repairs; once complete, the
//     tombstone is physically removed from all replicas. A configurable
//     TombstoneTTL additionally collects tombstones whose ack tracking was
//     lost (a restarted cluster client), but only when a read observed
//     every replica agreeing on the tombstone — so TTL collection can never
//     re-expose data held by a stale or unreachable replica.
//
// All repair writes carry the winning envelope with its ORIGINAL
// timestamp: replaying one is idempotent, cannot reorder against newer
// writes, and is applied conditionally (the target's current version is
// re-checked first) so a replica that converged through another path is
// never regressed.

// hintsTable is the kvstore-private table hints are parked in. Like
// !cluster it is node-local bookkeeping, not data: excluded from Dump, and
// written/read per node directly (hints are not themselves replicated).
const hintsTable = "!hints"

// RepairOptions tunes the replication-repair subsystem. The zero value
// enables read repair and hinted handoff with default sizing whenever
// ReplicationFactor > 1; at ReplicationFactor 1 there is nothing to
// repair and the subsystem is not started.
type RepairOptions struct {
	// DisableReadRepair turns off winner write-back on reads and scans.
	DisableReadRepair bool
	// DisableHints turns off hint parking and draining for writes that
	// skip a down replica.
	DisableHints bool
	// Workers sizes the repair worker pool (default 2).
	Workers int
	// QueueLen bounds the pending repair queue (default 256); repairs
	// past the bound are dropped and counted in Stats.RepairDropped.
	QueueLen int
	// HintInterval is the base cadence of the hint drain loop and the
	// initial per-target retry backoff (default 1s).
	HintInterval time.Duration
	// HintMaxBackoff caps the per-target exponential backoff between
	// replay attempts against a still-down node (default 30s).
	HintMaxBackoff time.Duration
	// TombstoneTTL, when positive, garbage-collects any tombstone older
	// than the TTL once a read observes every replica of the key agreeing
	// on it. Zero keeps acknowledgment-based GC only. It exists to collect
	// tombstones whose acknowledgment tracking died with a previous
	// cluster client.
	TombstoneTTL time.Duration
	// AntiEntropyInterval, when positive, starts the background
	// anti-entropy loop (antientropy.go): each interval one replica pair's
	// hash trees are compared and any divergence — including divergence no
	// read or hint ever observed — is repaired. Zero (the default) leaves
	// convergence to read repair and hinted handoff. Requires every node's
	// backend to implement engine.HashRanger (all built-in engines do).
	AntiEntropyInterval time.Duration
	// AntiEntropyFanout is the hash-tree bucket count the loop digests
	// tables into (default engine.DefaultHashFanout, capped at
	// engine.MaxHashFanout). More buckets mean finer drill-down on a
	// diverged table at the cost of a larger digest frame.
	AntiEntropyFanout int
}

func (o RepairOptions) withDefaults() RepairOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.HintInterval <= 0 {
		o.HintInterval = time.Second
	}
	if o.HintMaxBackoff <= 0 {
		o.HintMaxBackoff = 30 * time.Second
	}
	return o
}

// repairTask is one unit of asynchronous convergence work on a key: either
// writing the winning envelope to the losing replicas, or (gc) physically
// removing a fully-acknowledged tombstone from its replicas.
type repairTask struct {
	table, key string
	env        []byte // winning envelope (owned copy; nil for gc tasks)
	ts         uint64
	tomb       bool
	gc         bool
	targets    []int
}

// hintRef locates one durable hint record: parked on node park under key
// hkey of the !hints table. The record itself holds the payload; keeping
// only the reference in memory bounds the index to O(pending hints) keys.
type hintRef struct {
	park int
	hkey string
}

// hintQueue is the per-target drain state.
type hintQueue struct {
	pending []hintRef // replay order (hint keys embed a monotonic sequence)
	backoff time.Duration
	next    time.Time // do not re-probe the target before this
}

// tombWait tracks which replicas of a deleted key have not yet
// acknowledged its tombstone.
type tombWait struct {
	ts      uint64
	pending map[int]bool
}

type repairer struct {
	s    *Store
	opts RepairOptions

	// Read-repair pool. Workers start lazily on the first task so stores
	// that never observe divergence spawn no goroutines.
	tasks     chan repairTask
	startWork sync.Once
	mu        sync.Mutex // guards inflight
	inflight  map[string]bool

	// Hinted handoff. The drain loop starts lazily on the first parked or
	// recovered hint.
	hmu        sync.Mutex // guards hints
	hints      map[int]*hintQueue
	startDrain sync.Once
	kick       chan struct{}

	tmu   sync.Mutex // guards tombs
	tombs map[string]*tombWait

	// ctx is the repairer's lifecycle root: background convergence —
	// read-repair write-backs, hint replay, tombstone GC — runs on the
	// repairer's schedule, not any caller's, and is cancelled by close().
	ctx    context.Context
	cancel context.CancelFunc

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Counters, surfaced through Stats.
	repairWrites  atomic.Int64
	repairDropped atomic.Int64
	hintsQueued   atomic.Int64
	hintsReplayed atomic.Int64
	hintsPending  atomic.Int64
	tombstonesGC  atomic.Int64
}

func newRepairer(s *Store, opts RepairOptions) *repairer {
	opts = opts.withDefaults()
	//lint:rstore-vet ctxfirst: the repairer is a lifecycle root — its convergence work outlives any caller's request context and is cancelled by close()
	ctx, cancel := context.WithCancel(context.Background())
	return &repairer{
		s:        s,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		tasks:    make(chan repairTask, opts.QueueLen),
		inflight: make(map[string]bool),
		hints:    make(map[int]*hintQueue),
		kick:     make(chan struct{}, 1),
		tombs:    make(map[string]*tombWait),
		stop:     make(chan struct{}),
	}
}

// close stops the workers and the drain loop and waits for in-flight
// repair operations to finish (they are bounded: per-op transports either
// fail fast or retry a bounded number of times).
func (r *repairer) close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cancel()
	})
	r.wg.Wait()
}

func taskKey(table, key string) string { return table + "\x00" + key }

// dedupKey is the in-flight coalescing identity. GC tasks carry a marker:
// a tombstone repair whose final acknowledgment completes DURING run() —
// the anti-entropy path, where the repair write itself is the last ack —
// schedules the collection while its own key is still marked in-flight,
// and coalescing the GC against the repair that spawned it would drop the
// collection forever (the ack set is already consumed, so nothing would
// ever reschedule it).
func (t repairTask) dedupKey() string {
	k := taskKey(t.table, t.key)
	if t.gc {
		k += "\x00gc"
	}
	return k
}

// enqueue hands a task to the worker pool. Tasks for a key already being
// repaired coalesce (dropped silently — the in-flight repair converges the
// same replicas); tasks past the queue bound are dropped and counted.
func (r *repairer) enqueue(t repairTask) {
	if len(t.targets) == 0 {
		return
	}
	select {
	case <-r.stop:
		return // closing; nothing may start workers anymore
	default:
	}
	r.startWork.Do(func() {
		for i := 0; i < r.opts.Workers; i++ {
			r.wg.Add(1)
			go r.worker()
		}
	})
	k := t.dedupKey()
	r.mu.Lock()
	if r.inflight[k] {
		r.mu.Unlock()
		return
	}
	r.inflight[k] = true
	r.mu.Unlock()
	select {
	case r.tasks <- t:
	default:
		r.mu.Lock()
		delete(r.inflight, k)
		r.mu.Unlock()
		r.repairDropped.Add(1)
	}
}

func (r *repairer) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case t := <-r.tasks:
			r.run(t)
			r.mu.Lock()
			delete(r.inflight, t.dedupKey())
			r.mu.Unlock()
		}
	}
}

// run converges one key: write-back for repair tasks, conditional physical
// deletion for gc tasks. Everything is best effort — a replica that cannot
// be repaired now will be caught by the next observation or hint replay.
func (r *repairer) run(t repairTask) {
	ctx := r.ctx
	gcOK := false
	for _, nid := range t.targets {
		select {
		case <-r.stop:
			return
		default:
		}
		n := r.s.nodes[nid]
		if t.gc {
			if r.gcReplica(ctx, n, t) {
				gcOK = true
			}
			continue
		}
		raw, ok, err := n.get(ctx, t.table, t.key)
		if err != nil {
			continue
		}
		if ok {
			// An existing value that does not parse as an envelope was
			// never written by the store — the replica's bytes rotted (or
			// something else wrote there). There is nothing to compare
			// timestamps against, and skipping would leave the corruption
			// in place forever; any well-formed envelope is an improvement,
			// so fall through and overwrite it unconditionally. Anti-entropy
			// relies on this: its reconcile treats unparsable state as
			// absent and nominates the intact replica's version.
			if _, ts, tomb, err := unenvelope(raw); err == nil {
				// Apply only strictly newer state (or the tombstone side of a
				// timestamp tie). The re-check closes the race with the replica
				// having converged through another path — an older envelope
				// must never regress it.
				if !(t.ts > ts || (t.ts == ts && t.tomb && !tomb)) {
					if tomb && ts == t.ts && t.tomb {
						r.tombAck(t.table, t.key, t.ts, nid)
					}
					continue
				}
			}
		} else if t.tomb {
			// The replica has nothing to resurrect; writing a tombstone
			// over nothing adds no safety and would undo tombstone GC.
			// Holding nothing counts as having acknowledged the delete.
			r.tombAck(t.table, t.key, t.ts, nid)
			continue
		}
		if err := n.put(ctx, t.table, t.key, t.env); err != nil {
			continue
		}
		r.repairWrites.Add(1)
		if t.tomb {
			r.tombAck(t.table, t.key, t.ts, nid)
		}
	}
	if t.gc && gcOK {
		r.tombstonesGC.Add(1)
		// A TTL-scheduled collection may still have a (now moot) ack wait
		// registered; drop it so the tracker cannot grow unboundedly.
		k := taskKey(t.table, t.key)
		r.tmu.Lock()
		if w := r.tombs[k]; w != nil && w.ts == t.ts {
			delete(r.tombs, k)
		}
		r.tmu.Unlock()
	}
}

// gcReplica physically deletes a fully-acknowledged tombstone from one
// replica, re-checking that the replica still holds exactly that tombstone
// (a newer write must survive).
//
// The re-check-then-delete pair is not atomic: a writer re-creating the
// SAME key concurrently with its delete can land a put inside the window
// and have it removed from this replica (other replicas still hold it, so
// LWW reads survive and read repair restores the loser; losing the write
// everywhere needs the race won on every replica independently). A
// compare-and-delete op on engine.Backend would close the window; until
// then this matches the engine's documented single-logical-writer
// deployment (§2.4), where delete-then-recreate of one key is never
// concurrent.
func (r *repairer) gcReplica(ctx context.Context, n *node, t repairTask) bool {
	raw, ok, err := n.get(ctx, t.table, t.key)
	if err != nil {
		return false
	}
	if !ok {
		return true // already gone
	}
	_, ts, tomb, err := unenvelope(raw)
	if err != nil || !tomb || ts != t.ts {
		return false
	}
	return n.del(ctx, t.table, t.key) == nil
}

// ---- Hinted handoff ----

// hintKey renders the durable key of one hint: the target node and a
// monotonic sequence (the store's write clock), so a lexicographic sweep
// replays hints per target in write order and keys are unique across the
// hints a client parks.
func hintKey(target int, seq uint64) string {
	return fmt.Sprintf("%06d.%016x", target, seq)
}

// parseHintKey recovers the target node from a parked hint's key.
func parseHintKey(k string) (target int, ok bool) {
	i := strings.IndexByte(k, '.')
	if i < 0 {
		return 0, false
	}
	t, err := strconv.Atoi(k[:i])
	if err != nil || t < 0 {
		return 0, false
	}
	return t, true
}

// encodeHint packs the replay payload: destination table, key, and the
// winning envelope.
func encodeHint(table, key string, env []byte) []byte {
	var buf []byte
	buf = codec.PutString(buf, table)
	buf = codec.PutString(buf, key)
	buf = codec.PutBytes(buf, env)
	return buf
}

func decodeHint(raw []byte) (table, key string, env []byte, err error) {
	table, rest, err := codec.String(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, rest, err = codec.String(rest)
	if err != nil {
		return "", "", nil, err
	}
	env, _, err = codec.Bytes(rest)
	if err != nil {
		return "", "", nil, err
	}
	return table, key, env, nil
}

// hintSpec is one write missed by a down replica, to be parked durably.
type hintSpec struct {
	target     int
	table, key string
	env        []byte
}

// addHints durably parks hints on node park (a replica that accepted the
// write) in one batch — the batch path is the one durable backends fsync —
// and registers them with the drain loop. Parking is best effort: the
// write itself already succeeded on the live replicas, so a failed park
// only degrades the down node's convergence to read repair.
func (r *repairer) addHints(ctx context.Context, park int, specs []hintSpec) {
	if r.opts.DisableHints || len(specs) == 0 {
		return
	}
	entries := make([]engine.Entry, len(specs))
	refs := make([]hintRef, len(specs))
	targets := make([]int, len(specs))
	for i, sp := range specs {
		hkey := hintKey(sp.target, r.s.nextTS())
		entries[i] = engine.Entry{Key: hkey, Value: encodeHint(sp.table, sp.key, sp.env)}
		refs[i] = hintRef{park: park, hkey: hkey}
		targets[i] = sp.target
	}
	if err := r.s.nodes[park].batchPut(ctx, hintsTable, entries); err != nil {
		return
	}
	r.hmu.Lock()
	for i, ref := range refs {
		q := r.hints[targets[i]]
		if q == nil {
			q = &hintQueue{}
			r.hints[targets[i]] = q
		}
		q.pending = append(q.pending, ref)
	}
	r.hmu.Unlock()
	r.hintsQueued.Add(int64(len(specs)))
	r.hintsPending.Add(int64(len(specs)))
	r.ensureDrain()
}

// resetState drops all in-memory repair bookkeeping after a cluster wipe
// (Store.Reset): parked-hint indexes, read-repair dedup state, and
// tombstone waits all describe data that no longer exists, and replaying
// a stale hint would resurrect it.
func (r *repairer) resetState() {
	r.hmu.Lock()
	for _, q := range r.hints {
		r.hintsPending.Add(-int64(len(q.pending)))
	}
	r.hints = make(map[int]*hintQueue)
	r.hmu.Unlock()
	r.mu.Lock()
	r.inflight = make(map[string]bool)
	r.mu.Unlock()
	r.tmu.Lock()
	r.tombs = make(map[string]*tombWait)
	r.tmu.Unlock()
}

// recoverHints rebuilds the in-memory hint index from the !hints tables of
// every reachable node, so a restarted cluster client resumes draining
// hints a previous client parked. The nodes are scanned concurrently: this
// runs inside Open, and on a remote cluster a down node costs a full
// dial-retry cycle — serial scans would stack that latency in front of
// every Open. Hints on nodes unreachable right now are picked up by
// whichever client opens after they return.
func (r *repairer) recoverHints(ctx context.Context) {
	if r.opts.DisableHints {
		return
	}
	perNode := make([][]hintRef, len(r.s.nodes))
	var wg sync.WaitGroup
	for i, nd := range r.s.nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			_ = nd.scan(ctx, hintsTable, func(k string, _ []byte) bool {
				if target, ok := parseHintKey(k); ok && target < len(r.s.nodes) {
					perNode[i] = append(perNode[i], hintRef{park: nd.id, hkey: k})
				}
				return true
			})
		}(i, nd)
	}
	wg.Wait()

	n := 0
	r.hmu.Lock()
	for _, refs := range perNode {
		for _, ref := range refs {
			target, _ := parseHintKey(ref.hkey)
			q := r.hints[target]
			if q == nil {
				q = &hintQueue{}
				r.hints[target] = q
			}
			q.pending = append(q.pending, ref)
			n++
		}
	}
	for _, q := range r.hints {
		// Backend scans are unordered; hint keys embed the write sequence.
		sort.Slice(q.pending, func(i, j int) bool { return q.pending[i].hkey < q.pending[j].hkey })
	}
	r.hmu.Unlock()
	if n > 0 {
		r.hintsQueued.Add(int64(n))
		r.hintsPending.Add(int64(n))
		r.ensureDrain()
	}
}

func (r *repairer) ensureDrain() {
	select {
	case <-r.stop:
		return // closing; nothing may start the drain loop anymore
	default:
	}
	r.startDrain.Do(func() {
		r.wg.Add(1)
		go r.drainLoop()
	})
}

// kickDrain wakes the drain loop immediately and clears per-target
// backoff — called when a node is known to have just come back (failure
// injection flipping it up), so tests and operators see prompt convergence.
func (r *repairer) kickDrain() {
	r.hmu.Lock()
	for _, q := range r.hints {
		q.next = time.Time{}
		q.backoff = 0
	}
	r.hmu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *repairer) drainLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.opts.HintInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		case <-r.kick:
		}
		now := walltime()
		var due []int
		r.hmu.Lock()
		for target, q := range r.hints {
			if len(q.pending) > 0 && !now.Before(q.next) {
				due = append(due, target)
			}
		}
		r.hmu.Unlock()
		sort.Ints(due)
		for _, target := range due {
			r.drainTarget(target)
		}
	}
}

// drainTarget replays parked hints to one target in order until the queue
// empties or the target (or a parking node) proves unreachable, in which
// case the target backs off exponentially.
func (r *repairer) drainTarget(target int) {
	ctx := r.ctx
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.hmu.Lock()
		q := r.hints[target]
		if q == nil || len(q.pending) == 0 {
			if q != nil {
				q.backoff = 0
			}
			r.hmu.Unlock()
			return
		}
		ref := q.pending[0]
		r.hmu.Unlock()

		if !r.replayHint(ctx, target, ref) {
			r.hmu.Lock()
			q.backoff = max(2*q.backoff, r.opts.HintInterval)
			q.backoff = min(q.backoff, r.opts.HintMaxBackoff)
			q.next = walltime().Add(q.backoff)
			r.hmu.Unlock()
			return
		}
		r.hmu.Lock()
		q.pending = q.pending[1:]
		q.backoff = 0
		r.hmu.Unlock()
		r.hintsPending.Add(-1)
		r.hintsReplayed.Add(1)
	}
}

// replayHint delivers one parked hint: read it back from its parking node,
// conditionally apply it to the target (only if strictly newer than what
// the target holds now), then remove the parked record. False means "try
// this target again later" (park or target unreachable); true consumes the
// hint — including hints that turn out to be stale, corrupt, or already
// replayed by another client.
func (r *repairer) replayHint(ctx context.Context, target int, ref hintRef) bool {
	discard := func() bool {
		_ = r.s.nodes[ref.park].del(ctx, hintsTable, ref.hkey)
		return true
	}
	raw, ok, err := r.s.nodes[ref.park].get(ctx, hintsTable, ref.hkey)
	if err != nil {
		return false
	}
	if !ok {
		return true // another client replayed and removed it
	}
	table, key, env, err := decodeHint(raw)
	if err != nil {
		return discard()
	}
	_, ts, tomb, err := unenvelope(env)
	if err != nil {
		return discard()
	}
	cur, ok, err := r.s.nodes[target].get(ctx, table, key)
	if err != nil {
		return false
	}
	apply := true
	if ok {
		if _, cts, ctomb, err := unenvelope(cur); err == nil {
			apply = ts > cts || (ts == cts && tomb && !ctomb)
		}
	} else if tomb {
		apply = false // nothing to outvote; see run()
	}
	if apply {
		if err := r.s.nodes[target].put(ctx, table, key, env); err != nil {
			return false
		}
		r.repairWrites.Add(1)
	}
	if tomb {
		r.tombAck(table, key, ts, target)
	}
	return discard()
}

// ---- Tombstone GC ----

// trackTombstone registers a freshly written tombstone and the replicas
// that have not yet acknowledged it. With no laggards the tombstone is
// immediately eligible for collection.
func (r *repairer) trackTombstone(table, key string, ts uint64, pending map[int]bool, replicas []int) {
	if len(pending) == 0 {
		r.scheduleGC(table, key, ts, replicas)
		return
	}
	r.tmu.Lock()
	r.tombs[taskKey(table, key)] = &tombWait{ts: ts, pending: pending}
	r.tmu.Unlock()
}

// tombAck records that one replica now holds (or provably does not need)
// the tombstone; the last acknowledgment schedules physical collection.
func (r *repairer) tombAck(table, key string, ts uint64, nid int) {
	k := taskKey(table, key)
	r.tmu.Lock()
	w := r.tombs[k]
	if w == nil || w.ts != ts {
		r.tmu.Unlock()
		return
	}
	delete(w.pending, nid)
	done := len(w.pending) == 0
	if done {
		delete(r.tombs, k)
	}
	r.tmu.Unlock()
	if done {
		r.scheduleGC(table, key, ts, r.s.ring.replicas(key, r.s.cfg.ReplicationFactor))
	}
}

func (r *repairer) scheduleGC(table, key string, ts uint64, replicas []int) {
	targets := make([]int, len(replicas))
	copy(targets, replicas)
	r.enqueue(repairTask{table: table, key: key, ts: ts, tomb: true, gc: true, targets: targets})
}

// observeExpiredTombstone is the TTL fallback for tombstones whose
// acknowledgment tracking died with a previous client. It only ever fires
// when the caller observed EVERY replica of the key reachable and agreeing
// on the tombstone — collecting any earlier could re-expose data still
// held by a stale or unreachable replica.
func (r *repairer) observeExpiredTombstone(table, key string, ts uint64, replicas []int) {
	ttl := r.opts.TombstoneTTL
	if ttl <= 0 || time.Since(time.Unix(0, int64(ts))) < ttl {
		return
	}
	r.scheduleGC(table, key, ts, replicas)
}
