package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// openDiskStore opens a store on a fresh lsm cluster rooted at dir.
func openDiskStore(t *testing.T, dir string, cfg Config) (*kvstore.Store, *Store) {
	t.Helper()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.KV = kv
	st, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kv, st
}

// TestLoadReplaysUnmanifestedCommits: a commit is acknowledged once its
// delta entry is durable, even if the process dies before the next manifest
// save. Load must replay it from the delta store.
func TestLoadReplaysUnmanifestedCommits(t *testing.T) {
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil { // manifest now covers v0
		t.Fatal(err)
	}
	v1, err := st.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{"b": []byte("b1")}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Commit(context.Background(), v1, Change{
		Puts:    map[types.Key][]byte{"a": []byte("a2")},
		Deletes: []types.Key{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated crash: the cluster's backends close (fsynced), but the
	// store never flushes, so the manifest still only knows v0.
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(context.Background(), Config{KV: kv2})
	if err != nil {
		t.Fatalf("load after crash: %v", err)
	}
	if n := re.NumVersions(); n != 3 {
		t.Fatalf("replayed %d versions, want 3", n)
	}
	if p := re.PendingVersions(); p != 2 {
		t.Fatalf("%d pending after replay, want 2", p)
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v2)
	if err != nil || string(rec.Value) != "a2" {
		t.Fatalf("a@v2 = %v, %v", rec, err)
	}
	if _, _, err := re.GetRecord(context.Background(), "b", v2); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("deleted b@v2: %v", err)
	}
	rec, _, err = re.GetRecord(context.Background(), "b", v1)
	if err != nil || string(rec.Value) != "b1" {
		t.Fatalf("b@v1 = %v, %v", rec, err)
	}
	// The replayed commits flush and survive a clean reopen.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	re2, err := Load(context.Background(), Config{KV: kv3})
	if err != nil {
		t.Fatal(err)
	}
	if re2.PendingVersions() != 0 {
		t.Fatalf("%d pending after clean close", re2.PendingVersions())
	}
	rec, _, err = re2.GetRecord(context.Background(), "a", v2)
	if err != nil || string(rec.Value) != "a2" {
		t.Fatalf("a@v2 after clean reopen = %v, %v", rec, err)
	}
}

// TestCheckpointEnablesRootReplay: a fresh durable store that checkpointed
// (as the server does on boot) can crash before its first flush without
// losing acknowledged commits — even the root.
func TestCheckpointEnablesRootReplay(t *testing.T) {
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil { // crash before any flush
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	re, err := Load(context.Background(), Config{KV: kv2})
	if err != nil {
		t.Fatalf("load after pre-flush crash: %v", err)
	}
	if re.NumVersions() != 1 || re.PendingVersions() != 1 {
		t.Fatalf("replay: %d versions, %d pending", re.NumVersions(), re.PendingVersions())
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
}

// TestLoadToleratesInterruptedFlush simulates a flush that crashed after
// writing chunk entries and projections but before the manifest: Load must
// skip the orphan chunk, prune the stale projection references, repair the
// KVS, and leave the store fully usable.
func TestLoadToleratesInterruptedFlush(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	numChunks := uint32(st.NumChunks())

	// Hand-craft the crash debris: an orphan chunk entry past the manifest
	// count holding a record of a never-manifested version, and a stale key
	// projection row referencing it.
	orphanCID := chunk.ID(numChunks)
	item, err := chunk.SingleRecordItem(st.corpus, 0) // reuse record 0's bytes
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeChunkPayload([]chunk.Item{item})
	if err := kv.Put(context.Background(), TableChunks, chunk.KVKey(st.gen, orphanCID), encodeChunkEntry(payload, chunk.NewMap(1))); err != nil {
		t.Fatal(err)
	}
	// A crashed flush saves the full projection — existing refs plus the
	// ones pointing at the never-manifested chunk.
	st.proj.AddKeyChunk("a", orphanCID)
	st.proj.ObserveVersionChunk(v0, orphanCID)
	st.proj.Normalize()
	if err := st.proj.Save(context.Background(), kv); err != nil {
		t.Fatal(err)
	}

	re, err := Load(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatalf("load with orphan chunk: %v", err)
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
	// The repair removed the orphan entry.
	if _, err := kv.Get(context.Background(), TableChunks, chunk.KVKey(st.gen, orphanCID)); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("orphan chunk entry survived repair: %v", err)
	}
	// And the store keeps committing/flushing cleanly — the next flush
	// reuses the orphan's chunk id without collision.
	v1, err := re.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{"b": []byte("b1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _, err = re.GetRecord(context.Background(), "b", v1)
	if err != nil || string(rec.Value) != "b1" {
		t.Fatalf("b@v1 = %v, %v", rec, err)
	}
}

// TestLoadCleansStaleDeltas: delta entries for versions the manifest already
// placed (a crash between the manifest save and the write-store drain) are
// ignored and garbage-collected by a writable Load.
func TestLoadCleansStaleDeltas(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Re-create the already-drained delta entry, as a crash mid-drain would
	// leave it.
	d := &types.Delta{Adds: []types.Record{{CK: types.CompositeKey{Key: "a", Version: v0}, Value: []byte("a0")}}}
	if err := kv.Put(context.Background(), TableDeltaStore, deltaKey(v0), encodeDeltaEntry([]types.VersionID{types.InvalidVersion}, d)); err != nil {
		t.Fatal(err)
	}

	re, err := Load(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatalf("load with stale delta: %v", err)
	}
	if re.PendingVersions() != 0 {
		t.Fatalf("stale delta resurrected as pending")
	}
	if _, err := kv.Get(context.Background(), TableDeltaStore, deltaKey(v0)); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stale delta survived repair: %v", err)
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
}

// TestCloseIdempotent: double Close is a no-op, not an ErrClosed failure.
func TestCloseIdempotent(t *testing.T) {
	st, err := Open(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("x"),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
