package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// RunCompact measures lsm compaction under the workload the paper's
// multi-version premise implies: the same documents overwritten version
// after version, leaving every superseded value as dead bytes in the
// flushed SSTables. It reports on-disk volume and live ratio
// before compaction, after Compact, and after a close/reopen (proving the
// compacted layout replays), verifying along the way that every read
// returns the same results pre- and post-compaction and that compaction
// reclaimed at least half the disk volume. It always runs on a private
// lsm cluster with a small memtable, so the substrate override is
// deliberately ignored.
func RunCompact(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	nKeys := scaled(2000, opts.RecordFrac, 64)
	valSize := scaled(512, opts.SizeFrac, 64)
	const rounds = 4 // overwrites per key after the initial write
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "rstore-bench-compact-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A small memtable so the workload flushes into many SSTables before
	// the full merge runs.
	newBackend := func(int) (engine.Backend, error) {
		return lsm.Open(dir, lsm.Options{MemtableBytes: 4 << 10})
	}
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, NewBackend: newBackend})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			kv.Close()
		}
	}()

	t := &Table{
		ID:        "compact",
		Title:     fmt.Sprintf("lsm compaction: %d keys x %d versions, 10%% deleted", nKeys, rounds+1),
		PaperNote: "extension beyond the paper: log-structured storage reclaim under the versioned-overwrite workload",
		Headers:   []string{"phase", "disk", "live", "live ratio", "reclaimed"},
	}

	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }
	val := func(i, rev int) []byte {
		b := make([]byte, valSize)
		copy(b, fmt.Sprintf("doc-%06d rev-%d:", i, rev))
		return b
	}
	row := func(phase string, note string) kvstore.Stats {
		if note == "" {
			note = "-"
		}
		st := kv.Stats(ctx)
		t.AddRow(phase, mb(st.DiskBytes), mb(st.LiveBytes), f2(st.LiveRatio), note)
		return st
	}

	// Overwrite-heavy workload: every key written rounds+1 times through
	// the fsynced batch path, then a tenth of the keyspace deleted.
	const batch = 256
	for rev := 0; rev <= rounds; rev++ {
		for lo := 0; lo < nKeys; lo += batch {
			hi := min(lo+batch, nKeys)
			entries := make([]kvstore.Entry, 0, hi-lo)
			for i := lo; i < hi; i++ {
				entries = append(entries, kvstore.Entry{Key: key(i), Value: val(i, rev)})
			}
			if err := kv.BatchPut(ctx, "t", entries); err != nil {
				return nil, err
			}
		}
	}
	nDel := nKeys / 10
	for i := 0; i < nDel; i++ {
		if err := kv.Delete(ctx, "t", key(i)); err != nil {
			return nil, err
		}
	}

	// Snapshot every read result, compact, and demand identical reads.
	readAll := func() ([][]byte, error) {
		out := make([][]byte, nKeys)
		for i := 0; i < nKeys; i++ {
			v, err := kv.Get(ctx, "t", key(i))
			if i < nDel {
				if !errors.Is(err, types.ErrNotFound) {
					return nil, fmt.Errorf("bench compact: deleted %s: got %v, want not-found", key(i), err)
				}
				continue
			}
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	want, err := readAll()
	if err != nil {
		return nil, err
	}
	before := row("after overwrite-heavy writes", "")

	reclaimed, err := kv.Compact(ctx)
	if err != nil {
		return nil, err
	}
	after := row("after Compact", mb(reclaimed))
	got, err := readAll()
	if err != nil {
		return nil, err
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return nil, fmt.Errorf("bench compact: %s changed across compaction", key(i))
		}
	}
	if after.DiskBytes > before.DiskBytes/2 {
		return nil, fmt.Errorf("bench compact: disk bytes %d -> %d: compaction reclaimed less than half",
			before.DiskBytes, after.DiskBytes)
	}

	// The compacted layout must replay: reopen the directory cold and read
	// everything back.
	if err := kv.Close(); err != nil {
		return nil, err
	}
	closed = true
	kv, err = kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, NewBackend: newBackend})
	if err != nil {
		return nil, err
	}
	closed = false
	row("after close + reopen", "")
	got, err = readAll()
	if err != nil {
		return nil, err
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return nil, fmt.Errorf("bench compact: %s changed across reopen", key(i))
		}
	}
	return []*Table{t}, nil
}
