package lsm

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCompactAccounting pins the reclaim accounting Compact and the live-
// ratio trigger of a daemon rely on, with the history held only in the WAL
// (default memtable) and spread over flushed and tier-merged SSTables
// (4 KiB memtable, 4-table tiering):
//
//   - overwrites and deletes show as dead bytes wherever they live, the
//     WAL included;
//   - the incremental accounting equals what a reopen rebuilds from the
//     files, so merges hand their dead weight on exactly;
//   - Compact grows CompactedBytes by exactly the drop in DiskBytes (the
//     flush and the merge together) and leaves a store that is all live;
//   - a second Compact rewrites nothing.
func TestCompactAccounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"wal", Options{}},
		{"sstables", Options{MemtableBytes: 4 << 10, MaxTables: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			b := openT(t, dir, tc.opts)
			defer func() { b.Close() }()
			for rev := 0; rev < 5; rev++ {
				for i := 0; i < 100; i++ {
					k := fmt.Sprintf("k%03d", i)
					v := fmt.Sprintf("%s rev-%d %s", k, rev, strings.Repeat("x", 64))
					if err := b.Put(ctx, "t", k, []byte(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 10; i++ {
				if err := b.Delete(ctx, "t", fmt.Sprintf("k%03d", i)); err != nil {
					t.Fatal(err)
				}
			}

			before, err := b.CompactionStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if before.DiskBytes != diskBytes(t, dir) {
				t.Fatalf("stats say %d disk bytes, filesystem says %d", before.DiskBytes, diskBytes(t, dir))
			}
			if r := before.LiveRatio(); r > 0.5 {
				t.Fatalf("overwrites and deletes left live ratio %.2f: %+v", r, before)
			}
			if tc.opts.MemtableBytes > 0 && before.CompactedBytes == 0 {
				t.Fatalf("no tier merge ran before Compact: %+v", before)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = openT(t, dir, tc.opts)
			rebuilt, err := b.CompactionStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.DiskBytes != before.DiskBytes || rebuilt.LiveBytes != before.LiveBytes {
				t.Fatalf("reopen rebuilt disk/live %d/%d, running store reported %d/%d",
					rebuilt.DiskBytes, rebuilt.LiveBytes, before.DiskBytes, before.LiveBytes)
			}

			after, err := b.Compact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := after.CompactedBytes-rebuilt.CompactedBytes, rebuilt.DiskBytes-after.DiskBytes; got != want || got <= 0 {
				t.Fatalf("CompactedBytes grew by %d, DiskBytes fell by %d", got, want)
			}
			if after.DiskBytes != diskBytes(t, dir) {
				t.Fatalf("stats say %d disk bytes, filesystem says %d", after.DiskBytes, diskBytes(t, dir))
			}
			if after.LiveRatio() != 1 || after.Segments != 2 {
				t.Fatalf("compacted store not one all-live table: %+v", after)
			}
			tables, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))

			again, err := b.Compact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if again != after {
				t.Fatalf("second Compact changed the stats: %+v -> %+v", after, again)
			}
			if got, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst")); !slices.Equal(got, tables) {
				t.Fatalf("second Compact rewrote the store: %v -> %v", tables, got)
			}
		})
	}
}
