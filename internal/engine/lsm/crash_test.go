package lsm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/enginetest"
)

func openT(t *testing.T, dir string, opts Options) *Backend {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diskBytes sums every lsm data file (SSTables + WAL) under dir straight
// from the filesystem, cross-checking CompactionStats accounting.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, pat := range []string{"sst-*.sst", "wal-*.log"} {
		names, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			info, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// TestCompactCrashRecovery runs the shared crash-injection suite over every
// dangerous point of the flush/merge pipeline:
//
//   - mid-flush / mid-merge: the output SSTable is half-written with no
//     footer; recovery must delete the .tmp debris and serve from the WAL
//     and intact tables.
//   - flush-renamed / merge-renamed: the SSTable is complete and renamed
//     into place but the MANIFEST never committed it; recovery must drop the
//     unreferenced file (for a flush the WAL is still authoritative).
//   - merge-manifested: the MANIFEST committed the merge but the victim
//     tables were never deleted; recovery must remove them instead of
//     mounting them (which would double-count and resurrect tombstoned
//     keys dropped by the merge).
func TestCompactCrashRecovery(t *testing.T) {
	enginetest.CompactCrashRecovery(t, enginetest.Harness{
		Open: func(t *testing.T, dir string) enginetest.Crasher {
			return openT(t, dir, Options{MemtableBytes: 4 << 10})
		},
		Points:      []string{"mid-flush", "flush-renamed", "mid-merge", "merge-renamed", "merge-manifested"},
		CrashErr:    ErrCrashed,
		DebrisGlobs: []string{"*.tmp"},
		DiskBytes:   diskBytes,
		// Compact reaches the flush points only through a non-empty
		// memtable, and the workload's tail may have landed exactly on a
		// flush boundary — top the memtable up until it holds something.
		Prepare: func(t *testing.T, c enginetest.Crasher) map[string]string {
			b := c.(*Backend)
			ctx := context.Background()
			extra := map[string]string{}
			for i := 0; ; i++ {
				k := fmt.Sprintf("extra-%02d", i)
				v := k + " resident"
				if err := b.Put(ctx, "t", k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				extra[k] = v
				b.mu.RLock()
				n := b.mem.count
				b.mu.RUnlock()
				if n > 0 {
					return extra
				}
			}
		},
	})
}

// TestWALTornTailRecovery is the torn-tail contract: a crash mid-append
// leaves garbage after the last acknowledged record; replay must truncate it, serve every acknowledged
// write, and leave the log appendable.
func TestWALTornTailRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{}) // default 4 MiB memtable: everything stays in the WAL
	want := map[string]string{}
	var ents []engine.Entry
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("w%03d", i)
		v := fmt.Sprintf("%s committed", k)
		ents = append(ents, engine.Entry{Key: k, Value: []byte(v)})
		want[k] = v
	}
	if err := b.BatchPut(ctx, "t", ents); err != nil { // fsynced on ack
		t.Fatal(err)
	}
	b.Kill()

	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files %v (err %v)", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	for k, wv := range want {
		v, ok, err := r.Get(ctx, "t", k)
		if err != nil || !ok || string(v) != wv {
			t.Fatalf("%s = %q (ok=%v err=%v), want %q", k, v, ok, err, wv)
		}
	}
	// The truncated log must accept new appends.
	if err := r.Put(ctx, "t", "after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openT(t, dir, Options{})
	defer r2.Close()
	if v, ok, _ := r2.Get(ctx, "t", "after"); !ok || string(v) != "crash" {
		t.Fatalf("post-recovery write lost: %q (ok=%v)", v, ok)
	}
}
