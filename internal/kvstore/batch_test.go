package kvstore

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestBatchPutReadBack(t *testing.T) {
	s := open(t, 4, 2)
	var entries []Entry
	for i := 0; i < 120; i++ {
		entries = append(entries, Entry{
			Key:   fmt.Sprintf("k%03d", i),
			Value: []byte(fmt.Sprintf("value-%03d", i)),
		})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		got, err := s.Get(context.Background(), "t", fmt.Sprintf("k%03d", i))
		if err != nil || string(got) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("k%03d = %q, %v", i, got, err)
		}
	}
	st := s.Stats(context.Background())
	if st.Requests < 120+120 { // 120 batched puts + 120 gets
		t.Fatalf("Requests = %d", st.Requests)
	}
	if st.BytesPut == 0 || st.SimElapsed <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Empty batch is a no-op.
	if err := s.BatchPut(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPutAccountingMatchesPut: a single-entry batch must cost exactly
// what the equivalent Put costs, so converting a write path to BatchPut
// never skews the simulated experiments.
func TestBatchPutAccountingMatchesPut(t *testing.T) {
	a := open(t, 4, 2)
	b := open(t, 4, 2)
	val := make([]byte, 1000)
	if err := a.Put(context.Background(), "t", "k", val); err != nil {
		t.Fatal(err)
	}
	if err := b.BatchPut(context.Background(), "t", []Entry{{Key: "k", Value: val}}); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(context.Background()), b.Stats(context.Background())
	if sa.Requests != sb.Requests || sa.BytesPut != sb.BytesPut || sa.SimElapsed != sb.SimElapsed {
		t.Fatalf("Put %+v vs BatchPut %+v", sa, sb)
	}
}

// TestBatchPutCheaperThanSequentialPuts: the batch commits through parallel
// node lanes, so its simulated elapsed time must undercut the same writes
// issued one by one.
func TestBatchPutCheaperThanSequentialPuts(t *testing.T) {
	seq := open(t, 4, 1)
	bat := open(t, 4, 1)
	var entries []Entry
	for i := 0; i < 64; i++ {
		e := Entry{Key: fmt.Sprintf("k%03d", i), Value: make([]byte, 256)}
		entries = append(entries, e)
		if err := seq.Put(context.Background(), "t", e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	if s, b := seq.Stats(context.Background()).SimElapsed, bat.Stats(context.Background()).SimElapsed; b >= s {
		t.Fatalf("batch elapsed %v not cheaper than sequential %v", b, s)
	}
}

func TestBatchPutSurvivesReplicaFailure(t *testing.T) {
	s := open(t, 4, 2)
	if err := s.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: []byte{byte(i)}})
	}
	// Every key still has one live replica (rf=2, one node down).
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := s.Get(context.Background(), "t", fmt.Sprintf("k%03d", i))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%03d = %v, %v", i, got, err)
		}
	}
}

func TestBatchPutAllReplicasDownIsAnError(t *testing.T) {
	s := open(t, 2, 1)
	owner := s.ring.primary("a")
	if err := s.SetNodeUp(owner, false); err != nil {
		t.Fatal(err)
	}
	err := s.BatchPut(context.Background(), "t", []Entry{{Key: "a", Value: []byte("1")}})
	if err == nil || !strings.Contains(err.Error(), "all replicas down") {
		t.Fatalf("batch to fully-dead replica set: %v", err)
	}
}

func TestDeleteAllReplicasDownIsAnError(t *testing.T) {
	s := open(t, 2, 1)
	if err := s.Put(context.Background(), "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	owner := s.ring.primary("a")
	if err := s.SetNodeUp(owner, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "a"); err == nil {
		t.Fatal("delete with every replica down succeeded (tombstone took hold nowhere)")
	}
	// Back up: delete works and is idempotent again.
	if err := s.SetNodeUp(owner, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "a"); err != nil {
		t.Fatal(err)
	}
}

// TestClusterOnLSM runs a cluster on the disk backend: contents must
// survive Close + reopen of the same data directory, including replicated
// keys and batch writes.
func TestClusterOnLSM(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Nodes: 3, ReplicationFactor: 2, Engine: EngineLSM, Dir: dir, Cost: DefaultCostModel()}
	s, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "k007"); err != nil {
		t.Fatal(err)
	}
	// Every replica acknowledged the delete, so a repair worker collects
	// the tombstone in the background; read the size once it is gone, or
	// the collection can land between this read and Close.
	waitFor(t, "k007's tombstone collected", func() bool {
		return s.Stats(context.Background()).TombstonesGCed == 1
	})
	stored := s.Stats(context.Background()).BytesStored
	if stored <= 0 {
		t.Fatalf("BytesStored = %d", stored)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		got, err := r.Get(context.Background(), "t", k)
		if i == 7 {
			if err == nil {
				t.Fatalf("deleted key %s resurrected as %q", k, got)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s = %q, %v", k, got, err)
		}
	}
	if got := r.Stats(context.Background()).BytesStored; got != stored {
		t.Fatalf("BytesStored after reopen = %d, want %d", got, stored)
	}
	// The ring hashes identically across opens, so every node finds its own
	// data; scans still visit each key exactly once.
	seen := 0
	if err := r.Scan(context.Background(), "t", func(string, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 199 {
		t.Fatalf("scan visited %d keys, want 199", seen)
	}
}

func TestOpenUnknownEngineFails(t *testing.T) {
	if _, err := Open(context.Background(), Config{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Open(context.Background(), Config{Engine: EngineLSM}); err == nil {
		t.Fatal("lsm without Dir accepted")
	}
}

// TestLSMGeometryPinned: an lsm data directory records the node
// count it was created with; reopening with a different count would rehash
// keys onto the wrong nodes, so it must refuse.
func TestLSMGeometryPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(context.Background(), Config{Nodes: 3, Engine: EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		_, err := Open(context.Background(), Config{Nodes: n, Engine: EngineLSM, Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "created with 3 nodes") {
			t.Fatalf("reopen with %d nodes: %v, want the geometry pin's refusal", n, err)
		}
	}
	// Same geometry reopens fine; rf changes are allowed.
	r, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2, Engine: EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.Get(context.Background(), "t", "k"); err != nil || string(got) != "v" {
		t.Fatalf("k = %q, %v", got, err)
	}
}
