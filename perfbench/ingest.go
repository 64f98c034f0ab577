package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/types"
)

const putsPerCommit = 200

// readsPerCommit is how many reads the reader makes beside each commit.
const readsPerCommit = 2

// ingestWorkload is one committer and one reader, as the one-logical-writer
// contract requires. The committer chains commits of putsPerCommit 512 B
// puts off the newest version; the store partitions online on every
// onlineBatch-th commit. The reader does GetRecord on keys live in the
// latest acknowledged version, which the pending-version overlay serves
// until the next flush.
//
// The two run in lockstep: beside each commit the reader makes
// readsPerCommit reads at the version the commit builds on, and the next
// commit starts when both are done. A commit holds the store's lock, so
// one read of each flushing commit's step, and never more, waits out the
// flush.
// The share of reads that wait on a flush is then fixed by the plan, not
// by how fast the host runs the reader, and the read tail stays on one
// side of the gap between ordinary and flush-blocked reads.
type ingestWorkload struct {
	seed    int64
	keys    []types.Key // live at the base version, sorted
	commits [][]uint16  // per planned commit: indices into keys
	reads   []uint16    // reader's key sequence, replayed cyclically

	// The committer's model of the tip: each key's base record hash and
	// its updates in commit order.
	base    map[types.Key]uint64
	mu      sync.RWMutex
	updates map[types.Key][]update
	tip     atomic.Uint32 // latest acknowledged version
	seq     int           // commits made so far (committer goroutine only)
	nread   int           // reads made so far (committer goroutine only)
}

type update struct {
	v types.VersionID
	h uint64
}

func planIngest(ds *dataset, rng *rand.Rand, seed int64, commits, reads int) *ingestWorkload {
	keys, hashes := ds.liveKeys(ds.newest)
	w := &ingestWorkload{
		seed:    seed,
		keys:    keys,
		commits: make([][]uint16, commits),
		reads:   make([]uint16, reads),
		base:    hashes,
		updates: map[types.Key][]update{},
	}
	for i := range w.commits {
		perm := rng.Perm(len(keys))[:putsPerCommit]
		sort.Ints(perm)
		w.commits[i] = make([]uint16, putsPerCommit)
		for j, p := range perm {
			w.commits[i][j] = uint16(p)
		}
	}
	for i := range w.reads {
		w.reads[i] = uint16(rng.Intn(len(keys)))
	}
	w.tip.Store(uint32(ds.newest))
	return w
}

// value renders the deterministic 512 B document a commit puts under key.
func value(rng *rand.Rand, key types.Key, seq int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	buf := make([]byte, 0, recordSize)
	buf = fmt.Appendf(buf, `{"id":"%s","seq":%d,"body":"`, key, seq)
	for len(buf) < recordSize-2 {
		buf = append(buf, letters[rng.Intn(len(letters))])
	}
	return append(buf, '"', '}')
}

// expect returns the hash of key's record as of version v.
func (w *ingestWorkload) expect(key types.Key, v types.VersionID) uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ups := w.updates[key]
	i := sort.Search(len(ups), func(i int) bool { return ups[i].v > v })
	if i == 0 {
		return w.base[key]
	}
	return ups[i-1].h
}

func (w *ingestWorkload) commit(ctx context.Context, cl *cluster, plan []uint16) sample {
	w.seq++
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(w.seq)))
	puts := make(map[string][]byte, len(plan))
	for _, ki := range plan {
		key := w.keys[ki]
		puts[string(key)] = value(rng, key, w.seq)
	}
	parent := types.VersionID(w.tip.Load())
	s := sample{kind: opCommit, records: len(puts)}
	traced := cl.rec != nil && cl.rec.on.Load()
	pendingBefore := 0
	if traced {
		pendingBefore = cl.store.PendingVersions()
	}
	var ctxReq context.Context
	ctxReq, s.req = begin(ctx, cl)
	start := time.Now()
	v, err := cl.client.Commit(ctxReq, int64(parent), puts, nil, "")
	end(cl, &s, start)
	if traced {
		s.flushed = cl.store.PendingVersions() < pendingBefore
	}
	if err != nil {
		s.err = fmt.Errorf("commit on v%d: %w", parent, err)
		return s
	}
	if v != parent+1 {
		s.err = fmt.Errorf("commit on v%d: got version %d, want %d", parent, v, parent+1)
		return s
	}
	w.mu.Lock()
	for k, val := range puts {
		key := types.Key(k)
		w.updates[key] = append(w.updates[key], update{v: v, h: recordHash(key, v, val)})
	}
	w.mu.Unlock()
	w.tip.Store(uint32(v))
	return s
}

func (w *ingestWorkload) read(ctx context.Context, cl *cluster, key types.Key, v types.VersionID) sample {
	s := sample{kind: opRecord}
	ctx, s.req = begin(ctx, cl)
	start := time.Now()
	r, st, err := cl.client.GetRecord(ctx, strconv.FormatUint(uint64(v), 10), key)
	end(cl, &s, start)
	s.stats, s.records = st, 1
	if err != nil {
		s.err = fmt.Errorf("record v%d %q: %w", v, key, err)
		return s
	}
	if got, want := hashRecord(r), w.expect(key, v); got != want {
		s.err = fmt.Errorf("record v%d %q: origin %d hash %016x, want %016x", v, key, r.CK.Version, got, want)
	}
	return s
}

// planned counts the ops of kind a pass of count commits makes.
func (w *ingestWorkload) planned(kind opKind, count int) int {
	if kind == opRecord {
		return count * readsPerCommit
	}
	return count
}

// run makes the next count planned commits (the plan replays cyclically),
// each with readsPerCommit reads beside it.
func (w *ingestWorkload) run(ctx context.Context, cl *cluster, count int, limit time.Duration) passResult {
	commits := make([]sample, 0, count)
	reads := make([]sample, 0, count*readsPerCommit)
	start := time.Now()
	deadline := start.Add(limit)
	for i := 0; i < count && !time.Now().After(deadline); i++ {
		v := types.VersionID(w.tip.Load())
		keys := make([]types.Key, readsPerCommit)
		for j := range keys {
			keys[j] = w.keys[w.reads[w.nread%len(w.reads)]]
			w.nread++
		}
		step := make(chan []sample, 1)
		go func() {
			rs := make([]sample, 0, len(keys))
			for _, k := range keys {
				rs = append(rs, w.read(ctx, cl, k, v))
			}
			step <- rs
		}()
		commits = append(commits, w.commit(ctx, cl, w.commits[w.seq%len(w.commits)]))
		reads = append(reads, <-step...)
	}
	return passResult{samples: append(commits, reads...), elapsed: time.Since(start)}
}
