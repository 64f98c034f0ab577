package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
)

// Digest reads: the batched MultiGet path reads each value whole only from
// its serving replica (the primary here — ReadBalance is off) and just the
// envelope header from the others. These tests pin that the LWW outcome,
// read repair and tombstone handling are those of whole reads.

// digestKey returns a key whose primary (the serving replica) is not node
// 0, so "lowest node id" and "serving replica" pick different nodes.
func digestKey(s *Store) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("dk-%d", i)
		if s.ring.primary(k) != 0 {
			return k
		}
	}
}

func multiGetOne(t *testing.T, s *Store, key string) ([]byte, bool) {
	t.Helper()
	res, err := s.MultiGet(context.Background(), "t", []string{key})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values[0], len(res.Missing) == 0
}

// TestDigestReadStaleServingReplicaOutvoted: a serving replica that
// restarted stale is outvoted by the newer version a header-only replica
// holds; the newer value is returned and written back to the serving
// replica with the winner's payload.
func TestDigestReadStaleServingReplicaOutvoted(t *testing.T) {
	opts := fastRepair()
	opts.DisableHints = true // isolate the read-repair path
	s, backends := openRepair(t, 3, 3, opts)
	ctx := context.Background()
	key := digestKey(s)
	serving := s.ring.primary(key)

	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(serving, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(serving, true); err != nil {
		t.Fatal(err)
	}
	peer := other(s, key, serving)
	if bytes.Equal(mustRaw(t, backends[serving], "t", key), mustRaw(t, backends[peer], "t", key)) {
		t.Fatal("precondition: the serving replica should hold the stale version")
	}

	if v, ok := multiGetOne(t, s, key); !ok || string(v) != "v2" {
		t.Fatalf("MultiGet = %q (present=%v), want v2", v, ok)
	}
	waitFor(t, "stale serving replica rewritten with the winner", func() bool {
		return rawEqual(t, backends[serving], backends[peer], "t", key)
	})
	if payload := mustRaw(t, backends[serving], "t", key)[EnvelopeOverhead:]; string(payload) != "v2" {
		t.Fatalf("serving replica repaired to payload %q, want v2", payload)
	}
}

// TestDigestReadServingReplicaDown: when the serving replica's batch
// comes back unavailable, the other replicas' headers still name a live
// value, and the per-key fallback returns it.
func TestDigestReadServingReplicaDown(t *testing.T) {
	var down sync.Map // node id → true once its reads fail
	s, err := Open(context.Background(), Config{
		Nodes: 3, ReplicationFactor: 3, Repair: RepairOptions{DisableHints: true},
		NewBackend: func(id int) (engine.Backend, error) {
			return &switchBackend{Backend: memory.New(), id: id, down: &down}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	key := digestKey(s)
	if err := s.Put(ctx, "t", key, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	down.Store(s.ring.primary(key), true)
	if v, ok := multiGetOne(t, s, key); !ok || string(v) != "alive" {
		t.Fatalf("MultiGet with the serving replica down = %q (present=%v), want alive", v, ok)
	}
}

// switchBackend serves reads from its memory backend until its node id is
// marked down, then fails them as unavailable while the node's injection
// flag still reports it up — a serving replica that dies after MultiGet
// picked it.
type switchBackend struct {
	*memory.Backend
	id   int
	down *sync.Map
}

func (b *switchBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if _, ok := b.down.Load(b.id); ok {
		return nil, false, fmt.Errorf("test: %w", engine.ErrUnavailable)
	}
	return b.Backend.Get(ctx, table, key)
}

// TestDigestReadTombstoneOnHeaderReplica: a tombstone that only header-
// only replicas hold still wins — the key is missing, the stale serving
// replica is not resurrected but overwritten with the tombstone, and
// TTL collection waits for agreement exactly as on whole reads.
func TestDigestReadTombstoneOnHeaderReplica(t *testing.T) {
	opts := fastRepair()
	opts.TombstoneTTL = time.Nanosecond // everything is expired
	s, backends := openRepair(t, 3, 3, opts)
	ctx := context.Background()
	key := digestKey(s)
	replicas := s.ring.replicas(key, 3)
	serving := replicas[0]
	if err := backends[serving].Put(ctx, "t", key, envelope(envValue, 100, []byte("stale"))); err != nil {
		t.Fatal(err)
	}
	for _, n := range replicas[1:] {
		if err := backends[n].Put(ctx, "t", key, envelope(envTombstone, 200, nil)); err != nil {
			t.Fatal(err)
		}
	}

	if v, ok := multiGetOne(t, s, key); ok {
		t.Fatalf("MultiGet resurrected %q over a newer tombstone", v)
	}
	waitFor(t, "stale serving replica overwritten by the tombstone", func() bool {
		return rawEqual(t, backends[serving], backends[replicas[1]], "t", key)
	})
	for _, n := range replicas[1:] {
		if _, ok := rawGet(t, backends[n], "t", key); !ok {
			t.Fatal("tombstone collected while a replica was stale — resurrection hazard")
		}
	}

	// Now the replicas agree; reads observe it and TTL collection proceeds.
	waitFor(t, "expired tombstone collected after agreement", func() bool {
		if v, ok := multiGetOne(t, s, key); ok {
			t.Fatalf("MultiGet = %q after delete", v)
		}
		for _, n := range replicas {
			if _, ok := rawGet(t, backends[n], "t", key); ok {
				return false
			}
		}
		return true
	})
}

// TestDigestReadTieReturnsServingBytes: on an exact (ts, tomb) tie the
// winning version is already in hand from the serving replica, so its
// bytes are returned (no fallback to the lowest node id's copy) and the
// replicas count as agreeing.
func TestDigestReadTieReturnsServingBytes(t *testing.T) {
	s, backends := openRepair(t, 3, 3, RepairOptions{DisableHints: true})
	ctx := context.Background()
	key := digestKey(s)
	serving := s.ring.primary(key)
	for n := range backends {
		payload := "from-other"
		if n == serving {
			payload = "from-serving"
		}
		if err := backends[n].Put(ctx, "t", key, envelope(envValue, 600, []byte(payload))); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := multiGetOne(t, s, key); !ok || string(v) != "from-serving" {
		t.Fatalf("MultiGet tie = %q (present=%v), want from-serving", v, ok)
	}
	if st := s.Stats(ctx); st.RepairWrites != 0 {
		t.Fatalf("RepairWrites = %d on a tie, want 0", st.RepairWrites)
	}
}

// byteCountingBackend records how many value bytes each node returned per
// key, through Get and the engine.PrefixGetter extension.
type byteCountingBackend struct {
	*memory.Backend
	mu    sync.Mutex
	bytes map[string]int
}

func (b *byteCountingBackend) count(key string, v []byte) {
	b.mu.Lock()
	b.bytes[key] += len(v)
	b.mu.Unlock()
}

func (b *byteCountingBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	v, ok, err := b.Backend.Get(ctx, table, key)
	b.count(key, v)
	return v, ok, err
}

func (b *byteCountingBackend) GetPrefix(ctx context.Context, table, key string, n int) ([]byte, bool, error) {
	v, ok, err := b.Backend.Get(ctx, table, key)
	if len(v) > n {
		v = v[:n]
	}
	b.count(key, v)
	return v, ok, err
}

// TestDigestReadBytesPerReplica: on a cluster whose replicas agree, each
// value crosses the storage seam once — whole from its serving replica —
// and every other replica returns at most the envelope header.
func TestDigestReadBytesPerReplica(t *testing.T) {
	backends := make([]*byteCountingBackend, 3)
	s, err := Open(context.Background(), Config{
		Nodes: 3, ReplicationFactor: 3,
		NewBackend: func(id int) (engine.Backend, error) {
			backends[id] = &byteCountingBackend{Backend: memory.New(), bytes: map[string]int{}}
			return backends[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	value := bytes.Repeat([]byte("x"), 1000)
	var entries []Entry
	var keys []string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		keys = append(keys, k)
		entries = append(entries, Entry{Key: k, Value: value})
	}
	if err := s.BatchPut(ctx, "t", entries); err != nil {
		t.Fatal(err)
	}
	res, err := s.MultiGet(ctx, "t", keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("missing %v", res.Missing)
	}
	for i, k := range keys {
		if !bytes.Equal(res.Values[i], value) {
			t.Fatalf("%s = %d bytes, want the stored value", k, len(res.Values[i]))
		}
		serving := s.ring.primary(k)
		for n, b := range backends {
			got := b.bytes[k]
			switch {
			case n == serving && got != EnvelopeOverhead+len(value):
				t.Fatalf("%s: serving node %d returned %d bytes, want %d", k, n, got, EnvelopeOverhead+len(value))
			case n != serving && got > EnvelopeOverhead:
				t.Fatalf("%s: header-only node %d returned %d bytes, want ≤ %d", k, n, got, EnvelopeOverhead)
			}
		}
	}
}
