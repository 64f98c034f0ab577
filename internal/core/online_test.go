package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// flushGate wraps a memory backend and, once armed, parks every chunk-table
// BatchPut — the online flush's chunk rewrite — until released.
type flushGate struct {
	*memory.Backend
	armed   atomic.Bool
	parked  chan struct{} // signaled when a BatchPut parks
	release chan struct{} // closed to let parked writes through
}

func (g *flushGate) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if table == TableChunks && g.armed.Load() {
		select {
		case g.parked <- struct{}{}:
		default:
		}
		select {
		case <-g.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return g.Backend.BatchPut(ctx, table, entries)
}

// queryDigest runs every query type at every version of m (GetVersion,
// GetRange, GetRecord for each live key plus an absent one) and GetHistory
// for every key, checks each answer against the oracle, and renders all
// answers as one string so two passes can be compared exactly.
func queryDigest(ctx context.Context, s *Store, m *model) (string, error) {
	var b strings.Builder
	keys := map[types.Key]bool{}
	for v, want := range m.versions {
		vid := types.VersionID(v)
		recs, _, err := s.GetVersionAll(ctx, vid)
		if err != nil {
			return "", fmt.Errorf("GetVersion(%d): %w", v, err)
		}
		if err := sameRecords(recs, want, func(types.Key) bool { return true }); err != nil {
			return "", fmt.Errorf("GetVersion(%d): %w", v, err)
		}
		fmt.Fprintf(&b, "version %d: %v\n", v, recs)

		lo, hi := key(5), key(15)
		recs, _, err = s.GetRangeAll(ctx, KeyRange(lo, hi), vid)
		if err != nil {
			return "", fmt.Errorf("GetRange(%d): %w", v, err)
		}
		if err := sameRecords(recs, want, func(k types.Key) bool { return k >= lo && k < hi }); err != nil {
			return "", fmt.Errorf("GetRange(%d): %w", v, err)
		}
		fmt.Fprintf(&b, "range %d: %v\n", v, recs)

		for k, w := range want {
			keys[k] = true
			r, _, err := s.GetRecord(ctx, k, vid)
			if err != nil {
				return "", fmt.Errorf("GetRecord(%s, %d): %w", k, v, err)
			}
			if r.CK != w.CK || string(r.Value) != string(w.Value) {
				return "", fmt.Errorf("GetRecord(%s, %d) = %v, want %v", k, v, r.CK, w.CK)
			}
		}
		if _, _, err := s.GetRecord(ctx, key(99999), vid); !errors.Is(err, types.ErrNotFound) {
			return "", fmt.Errorf("GetRecord(absent, %d): err = %v, want ErrNotFound", v, err)
		}
	}
	sorted := make([]types.Key, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, k := range sorted {
		recs, _, err := s.GetHistoryAll(ctx, k)
		if err != nil {
			return "", fmt.Errorf("GetHistory(%s): %w", k, err)
		}
		want := m.history(k)
		if len(recs) != len(want) {
			return "", fmt.Errorf("GetHistory(%s): %d records, want %d", k, len(recs), len(want))
		}
		for _, r := range recs {
			if w, ok := want[r.CK]; !ok || string(w) != string(r.Value) {
				return "", fmt.Errorf("GetHistory(%s): unexpected %v", k, r.CK)
			}
		}
		fmt.Fprintf(&b, "history %s: %v\n", k, recs)
	}
	return b.String(), nil
}

// sameRecords checks recs against the oracle's records whose keys pass in.
func sameRecords(recs []types.Record, want map[types.Key]types.Record, in func(types.Key) bool) error {
	n := 0
	for k := range want {
		if in(k) {
			n++
		}
	}
	if len(recs) != n {
		return fmt.Errorf("%d records, want %d", len(recs), n)
	}
	for _, r := range recs {
		w, ok := want[r.CK.Key]
		if !ok || !in(r.CK.Key) || w.CK != r.CK || string(w.Value) != string(r.Value) {
			return fmt.Errorf("unexpected record %v", r.CK)
		}
	}
	return nil
}

// TestQueriesRunBesideFlush parks a flush in its chunk rewrite and checks
// that every query type still completes — with oracle-correct answers, at
// placed versions and at versions the parked flush is placing — and that
// the answers are identical once the flush publishes.
func TestQueriesRunBesideFlush(t *testing.T) {
	ctx := context.Background()
	gate := &flushGate{Backend: memory.New(), parked: make(chan struct{}, 1), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release)
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return gate, nil }})
	if err != nil {
		t.Fatal(err)
	}
	s, m := buildStore(t, Config{KV: kv, ChunkCapacity: 1024}, 12, 25, 21)
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A pending chain off the newest placed version: puts, a delete and a
	// fresh key, so the flush both extends old chunks and adds new ones.
	parent := types.VersionID(len(m.versions) - 1)
	for i := 0; i < 4; i++ {
		ch := Change{Puts: map[types.Key][]byte{
			key(i):       []byte(fmt.Sprintf("pending-%d", i)),
			key(500 + i): []byte(fmt.Sprintf("fresh-%d", i)),
		}}
		if i == 2 {
			for j := 10; j < 25; j++ {
				if _, live := m.versions[parent][key(j)]; live {
					ch.Deletes = append(ch.Deletes, key(j))
					break
				}
			}
		}
		v, err := s.Commit(ctx, parent, ch)
		if err != nil {
			t.Fatal(err)
		}
		m.commit(parent, ch, v)
		parent = v
	}
	if n := s.PendingVersions(); n != 4 {
		t.Fatalf("pending = %d, want 4", n)
	}

	gate.armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush(ctx) }()
	select {
	case <-gate.parked:
	case err := <-flushed:
		t.Fatalf("flush finished without rewriting chunks: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("flush never reached its chunk rewrite")
	}

	type result struct {
		digest  string
		pending int
		err     error
	}
	during := make(chan result, 1)
	go func() {
		d, err := queryDigest(ctx, s, m)
		during <- result{digest: d, pending: s.PendingVersions(), err: err}
	}()
	var before result
	select {
	case before = <-during:
	case <-time.After(10 * time.Second):
		t.Fatal("queries blocked behind the parked flush")
	}
	if before.err != nil {
		t.Fatalf("during flush: %v", before.err)
	}
	if before.pending != 4 {
		t.Fatalf("pending during flush = %d, want 4", before.pending)
	}

	release()
	if err := <-flushed; err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := s.PendingVersions(); n != 0 {
		t.Fatalf("pending after flush = %d, want 0", n)
	}
	after, err := queryDigest(ctx, s, m)
	if err != nil {
		t.Fatalf("after flush: %v", err)
	}
	if after != before.digest {
		t.Fatal("answers changed when the flush published")
	}
}

// TestConcurrentQueriesAtPendingAndFlushedVersions races readers against a
// committer whose small batches flush every few commits. The readers query
// the newest versions — pending ones served through the delta overlay and
// ones a flush has just placed — and check every answer against the model.
func TestConcurrentQueriesAtPendingAndFlushedVersions(t *testing.T) {
	for _, batch := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			ctx := context.Background()
			s, err := Open(ctx, Config{ChunkCapacity: 512, BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.RWMutex // guards m
			m := newModel()
			root := Change{Puts: map[types.Key][]byte{}}
			for i := 0; i < 20; i++ {
				root.Puts[key(i)] = []byte(fmt.Sprintf("base-%d", i))
			}
			v0, err := s.Commit(ctx, types.InvalidVersion, root)
			if err != nil {
				t.Fatal(err)
			}
			m.commit(types.InvalidVersion, root, v0)
			var committed atomic.Int64 // versions the model knows
			committed.Store(1)

			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				parent := v0
				for i := 0; i < 40; i++ {
					ch := Change{Puts: map[types.Key][]byte{key(i % 20): []byte(fmt.Sprintf("rev-%d", i))}}
					if i%7 == 3 {
						ch.Puts[key(20+i)] = []byte(fmt.Sprintf("new-%d", i))
					}
					if i%9 == 5 {
						ch.Deletes = append(ch.Deletes, key((i+10)%20))
					}
					mu.RLock()
					live := m.versions[parent]
					mu.RUnlock()
					if _, ok := live[key((i+10)%20)]; !ok {
						ch.Deletes = nil // already deleted on this chain
					}
					v, err := s.Commit(ctx, parent, ch)
					if err != nil {
						t.Errorf("commit %d: %v", i, err)
						return
					}
					mu.Lock()
					m.commit(parent, ch, v)
					mu.Unlock()
					committed.Add(1)
					parent = v
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := checkRecentVersion(ctx, s, m, &mu, &committed, rng); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(r))
			}
			wg.Wait()
			if s.NumVersions() != 41 {
				t.Fatalf("versions = %d", s.NumVersions())
			}
		})
	}
}

// checkRecentVersion queries one of the four newest committed versions
// with every query type and checks the answers against the model.
func checkRecentVersion(ctx context.Context, s *Store, m *model, mu *sync.RWMutex, committed *atomic.Int64, rng *rand.Rand) error {
	n := int(committed.Load())
	v := types.VersionID(n - 1 - rng.Intn(min(4, n)))
	mu.RLock()
	want := m.versions[v] // never mutated once committed
	probe := key(rng.Intn(30))
	history := m.history(probe)
	mu.RUnlock()

	recs, _, err := s.GetVersionAll(ctx, v)
	if err != nil {
		return fmt.Errorf("GetVersion(%d): %w", v, err)
	}
	if err := sameRecords(recs, want, func(types.Key) bool { return true }); err != nil {
		return fmt.Errorf("GetVersion(%d): %w", v, err)
	}
	lo, hi := key(5), key(15)
	recs, _, err = s.GetRangeAll(ctx, KeyRange(lo, hi), v)
	if err != nil {
		return fmt.Errorf("GetRange(%d): %w", v, err)
	}
	if err := sameRecords(recs, want, func(k types.Key) bool { return k >= lo && k < hi }); err != nil {
		return fmt.Errorf("GetRange(%d): %w", v, err)
	}
	r, _, err := s.GetRecord(ctx, probe, v)
	if w, ok := want[probe]; ok {
		if err != nil || r.CK != w.CK || string(r.Value) != string(w.Value) {
			return fmt.Errorf("GetRecord(%s, %d) = %v, %v; want %v", probe, v, r.CK, err, w.CK)
		}
	} else if !errors.Is(err, types.ErrNotFound) {
		return fmt.Errorf("GetRecord(%s, %d): err = %v, want ErrNotFound", probe, v, err)
	}
	// Commits may land during the history query, so it must return at
	// least what the model knew before it, with the same values.
	recs, _, err = s.GetHistoryAll(ctx, probe)
	if len(history) == 0 {
		return nil
	}
	if err != nil {
		return fmt.Errorf("GetHistory(%s): %w", probe, err)
	}
	got := make(map[types.CompositeKey]string, len(recs))
	for _, r := range recs {
		got[r.CK] = string(r.Value)
	}
	for ck, val := range history {
		if g, ok := got[ck]; !ok || g != string(val) {
			return fmt.Errorf("GetHistory(%s): %v missing or wrong", probe, ck)
		}
	}
	return nil
}
