package kvstore

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/engine"
)

// Anti-entropy: the background convergence path that needs no reads.
//
// Read repair and hinted handoff (repair.go) both wait on an observation —
// a read that happens to touch the diverged key, or a write that knew it
// skipped a down replica. Divergence that occurs behind the store's back
// (a replica restored from an old backup, bytes lost to disk corruption,
// an operator writing to a node directly) is invisible to both: no hint
// was parked, and a key nobody reads stays wrong forever. The anti-entropy
// loop closes that gap Dynamo-style, with hash trees instead of reads:
//
//	tick ─ pick one replica pair (round-robin, skipping down /
//	       breaker-open nodes)
//	     ─ per table: fetch both nodes' tree digests (engine.HashRanger;
//	       one frame each on remote nodes); equal roots → done, the common
//	       case costs two digest exchanges and zero key transfers
//	     ─ unequal roots → fetch only the unequal buckets' key/hash lists
//	       and diff them key by key
//	     ─ each differing key: read both replicas' envelopes (one batched
//	       MultiGet per node), pick the LWW winner, and hand the loser to
//	       the existing repair writer — which re-checks the target's
//	       current version before applying, so a replica that converged
//	       through another path meanwhile is never regressed, and
//	       tombstone deliveries feed acknowledgment-based GC.
//
// One pair per tick bounds the background load to two tree sweeps per
// interval regardless of cluster size; every pair is visited as ticks
// accumulate. The loop runs on the repairer's lifecycle context — it is
// only started when ReplicationFactor > 1, so the repairer always exists —
// and is stopped by Store.Close before the repair workers it feeds.
type antiEntropy struct {
	s        *Store
	interval time.Duration
	fanout   int

	pair int // round-robin cursor over replica pairs

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Counters, surfaced through Stats.
	syncs        atomic.Int64 // completed pair syncs
	rangesDiffed atomic.Int64 // unequal buckets drilled into
	keysRepaired atomic.Int64 // differing keys handed to the repair writer
	bytesHashed  atomic.Int64 // key+value bytes digested by tree sweeps
}

func newAntiEntropy(s *Store, opts RepairOptions) *antiEntropy {
	fanout := opts.AntiEntropyFanout
	if fanout <= 0 {
		fanout = engine.DefaultHashFanout
	}
	if fanout > engine.MaxHashFanout {
		fanout = engine.MaxHashFanout
	}
	return &antiEntropy{
		s:        s,
		interval: opts.AntiEntropyInterval,
		fanout:   fanout,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (a *antiEntropy) start() {
	go a.run()
}

// close stops the loop and waits for an in-flight tick to finish, so no
// sync touches node backends after Store.Close moves on to closing them.
func (a *antiEntropy) close() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

func (a *antiEntropy) run() {
	defer close(a.done)
	tick := time.NewTicker(a.interval)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
		}
		a.syncOnce()
	}
}

// syncOnce advances the pair cursor to the next replica pair with both
// nodes up and syncs it. With every pair down (or a single-node cluster)
// the tick is a no-op.
func (a *antiEntropy) syncOnce() {
	n := len(a.s.nodes)
	total := n * (n - 1) / 2
	if total == 0 {
		return
	}
	for tries := 0; tries < total; tries++ {
		i, j := pairAt(a.pair%total, n)
		a.pair++
		if !a.s.nodes[i].isUp() || !a.s.nodes[j].isUp() {
			continue
		}
		a.syncPair(a.s.repair.ctx, i, j)
		return
	}
}

// pairAt maps a linear index in [0, n*(n-1)/2) onto the (i, j) node pair
// with i < j, row-major: (0,1), (0,2), …, (1,2), ….
func pairAt(p, n int) (int, int) {
	for i := 0; i < n-1; i++ {
		row := n - 1 - i
		if p < row {
			return i, i + 1 + p
		}
		p -= row
	}
	return 0, 1
}

// syncPair converges every shared table of nodes i and j. Kvstore-private
// tables ("!hints", "!cluster") are skipped: hints are node-local
// bookkeeping and identity pins are meant to differ per node.
func (a *antiEntropy) syncPair(ctx context.Context, i, j int) {
	seen := map[string]bool{}
	var tables []string
	for _, nid := range [2]int{i, j} {
		ts, err := a.s.nodes[nid].tables(ctx)
		if err != nil {
			return // node vanished mid-tick; the next tick retries
		}
		for _, t := range ts {
			if len(t) > 0 && t[0] == '!' {
				continue
			}
			if !seen[t] {
				seen[t] = true
				tables = append(tables, t)
			}
		}
	}
	sort.Strings(tables)
	for _, table := range tables {
		select {
		case <-a.stop:
			return
		default:
		}
		if !a.syncTable(ctx, i, j, table) {
			return
		}
	}
	a.syncs.Add(1)
}

// syncTable diffs one table across the pair and queues repairs for the
// differing keys. False means the sync could not complete (a node became
// unreachable, or a backend lacks hashing) and the pair round should not
// be counted.
func (a *antiEntropy) syncTable(ctx context.Context, i, j int, table string) bool {
	di, err := a.s.nodes[i].hashTree(ctx, table, a.fanout)
	if err != nil {
		return false
	}
	dj, err := a.s.nodes[j].hashTree(ctx, table, a.fanout)
	if err != nil {
		return false
	}
	a.bytesHashed.Add(di.Bytes + dj.Bytes)
	if di.Root == dj.Root {
		return true
	}
	if len(di.Leaves) != a.fanout || len(dj.Leaves) != a.fanout {
		return false // malformed digest; do not guess at bucket alignment
	}
	var diff []string
	for b := 0; b < a.fanout; b++ {
		if di.Leaves[b] == dj.Leaves[b] {
			continue
		}
		a.rangesDiffed.Add(1)
		ki, err := a.s.nodes[i].hashRange(ctx, table, a.fanout, b)
		if err != nil {
			return false
		}
		kj, err := a.s.nodes[j].hashRange(ctx, table, a.fanout, b)
		if err != nil {
			return false
		}
		diff = append(diff, diffKeyHashes(ki, kj)...)
	}
	// Only keys replicated on BOTH nodes can legitimately be compared: at
	// ReplicationFactor < Nodes each node also holds keys the other is not
	// a replica of, and those differ by design.
	rf := a.s.cfg.ReplicationFactor
	keys := diff[:0]
	for _, k := range diff {
		onI, onJ := false, false
		for _, r := range a.s.ring.replicas(k, rf) {
			onI = onI || r == i
			onJ = onJ || r == j
		}
		if onI && onJ {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return true
	}
	vi, pi, err := a.s.nodes[i].multiGet(ctx, table, keys, nil)
	if err != nil {
		return false
	}
	vj, pj, err := a.s.nodes[j].multiGet(ctx, table, keys, nil)
	if err != nil {
		return false
	}
	for idx, key := range keys {
		a.reconcile(ctx, table, key, i, j, vi[idx], pi[idx], vj[idx], pj[idx])
	}
	return true
}

// diffKeyHashes merges two ascending key/hash lists and returns the keys
// present on only one side or hashing differently on the two.
func diffKeyHashes(ki, kj []engine.KeyHash) []string {
	var out []string
	x, y := 0, 0
	for x < len(ki) && y < len(kj) {
		switch {
		case ki[x].Key < kj[y].Key:
			out = append(out, ki[x].Key)
			x++
		case ki[x].Key > kj[y].Key:
			out = append(out, kj[y].Key)
			y++
		default:
			if ki[x].Hash != kj[y].Hash {
				out = append(out, ki[x].Key)
			}
			x++
			y++
		}
	}
	for ; x < len(ki); x++ {
		out = append(out, ki[x].Key)
	}
	for ; y < len(kj); y++ {
		out = append(out, kj[y].Key)
	}
	return out
}

// reconcile LWW-resolves one differing key between nodes i and j and hands
// the loser to the repair writer. An envelope that fails to parse counts
// as absent, so the intact replica's version repairs over corruption.
func (a *antiEntropy) reconcile(ctx context.Context, table, key string, i, j int, rawI []byte, okI bool, rawJ []byte, okJ bool) {
	var tsI, tsJ uint64
	var tombI, tombJ bool
	if okI {
		if _, ts, tomb, err := unenvelope(rawI); err == nil {
			tsI, tombI = ts, tomb
		} else {
			okI = false
		}
	}
	if okJ {
		if _, ts, tomb, err := unenvelope(rawJ); err == nil {
			tsJ, tombJ = ts, tomb
		} else {
			okJ = false
		}
	}
	var env []byte
	var ts uint64
	var tomb, loserAbsent bool
	var loser int
	switch {
	case !okI && !okJ:
		return // both unreadable; nothing trustworthy to spread
	case okI && okJ:
		if tsI == tsJ && tombI == tombJ {
			// Same version, different payload bytes (one side corrupted
			// in place): the conditional repair writer only applies
			// strictly newer state, so this cannot be fixed here — and
			// picking a "winner" between equal timestamps would be a
			// coin flip over which copy is the corrupt one.
			return
		}
		if lwwNewer(tsI, tombI, i, tsJ, tombJ, j) {
			env, ts, tomb, loser = rawI, tsI, tombI, j
		} else {
			env, ts, tomb, loser = rawJ, tsJ, tombJ, i
		}
	case okI:
		env, ts, tomb, loser, loserAbsent = rawI, tsI, tombI, j, true
	default:
		env, ts, tomb, loser, loserAbsent = rawJ, tsJ, tombJ, i, true
	}
	if tomb && loserAbsent {
		// Tombstone on one side, nothing on the other. The repair writer
		// refuses to write a tombstone over nothing (it would undo GC), so
		// queueing the task — and counting it as a repair — would just
		// re-discover the same pair every sweep without ever converging
		// it. Converge it the way the read path does instead: absence IS
		// the loser's acknowledgment, and once every replica holds either
		// exactly this tombstone or nothing, the holder side is eligible
		// for collection (ack-tracked now, or TTL-expired for tombstones
		// orphaned by a previous process).
		a.observeTombstone(ctx, table, key, ts)
		return
	}
	// The queued task owns its envelope (multiGet results are fresh
	// copies, but the contract belongs to the task, not the transport).
	a.s.repair.enqueue(repairTask{
		table: table, key: key,
		env: append([]byte(nil), env...), ts: ts, tomb: tomb,
		targets: []int{loser},
	})
	a.keysRepaired.Add(1)
}

// observeTombstone sweeps every replica of a tombstoned key and records
// what it finds: a replica holding exactly the tombstone has by definition
// acknowledged it, and a replica holding nothing has nothing the tombstone
// protects against (mirrors lwwGet's complete-observation rule). When the
// sweep covers all replicas it also hands the observation to the TTL
// fallback, the only collection route for tombstones whose in-memory ack
// tracking died with a previous process — without it a pair like
// (tombstone, wiped replica) diffs on every anti-entropy sweep forever.
func (a *antiEntropy) observeTombstone(ctx context.Context, table, key string, ts uint64) {
	replicas := a.s.ring.replicas(key, a.s.cfg.ReplicationFactor)
	for _, nid := range replicas {
		n := a.s.nodes[nid]
		if !n.isUp() {
			return
		}
		raw, ok, err := n.get(ctx, table, key)
		if err != nil {
			return
		}
		if ok {
			_, rts, rtomb, uerr := unenvelope(raw)
			if uerr != nil || !rtomb || rts != ts {
				return // a replica disagrees; the normal diff path handles it
			}
		}
		a.s.repair.tombAck(table, key, ts, nid)
	}
	a.s.repair.observeExpiredTombstone(table, key, ts, replicas)
}
