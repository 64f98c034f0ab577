package lsm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/types"
)

// TestOpenRefusesDisklogDirectory: a directory holding the segment files
// of the removed disklog engine and no MANIFEST must not open as a fresh
// empty store — that would serve an empty node over unreadable data. The
// refusal names the migration step and leaves the directory untouched.
func TestOpenRefusesDisklogDirectory(t *testing.T) {
	for _, name := range []string{"seg-000000.log", "seg-000004.log.cmp"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, name)
			if err := os.WriteFile(seg, []byte("disklog records"), 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir, Options{})
			if err == nil {
				b.Close()
				t.Fatal("directory of disklog segments opened as an empty lsm store")
			}
			for _, want := range []string{"disklog", "previous release"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not mention %q", err, want)
				}
			}
			if _, err := os.Stat(seg); err != nil {
				t.Fatalf("segment file touched by the refused open: %v", err)
			}
			for _, pat := range []string{"MANIFEST", "wal-*.log"} {
				if got, _ := filepath.Glob(filepath.Join(dir, pat)); len(got) != 0 {
					t.Fatalf("refused open initialized the directory: %v", got)
				}
			}
			// The refusal released the directory lock: once the segments
			// are gone the same directory opens.
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
			b = openT(t, dir, Options{})
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectoryLocked: two live backends on one directory would append to
// one WAL with independent offsets and shred committed records; the second
// open must be refused until the first closes.
func TestDirectoryLocked(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	if b2, err := Open(dir, Options{}); err == nil {
		b2.Close()
		t.Fatal("second open of a locked directory succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := openT(t, dir, Options{})
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSSTableIsFatal: only the live WAL's tail may be torn; a
// flipped byte in a sealed SSTable's index or footer is real corruption and
// must refuse to open rather than silently mount a table whose blocks
// cannot be located.
func TestCorruptSSTableIsFatal(t *testing.T) {
	for _, tc := range []struct {
		name string
		// at picks the byte to flip from the table's size and index offset.
		at func(size, indexOff int64) int64
	}{
		// First key byte of the index block (after its uvarint length).
		{"index", func(_, indexOff int64) int64 { return indexOff + 1 }},
		// The footer's own checksum field.
		{"footer", func(size, _ int64) int64 { return size - sstFooterSize + 32 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			b := openT(t, dir, Options{MemtableBytes: 512})
			for i := 0; i < 60; i++ {
				if err := b.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("vvvvvvvvvvvvvvvv")); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			tables, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
			if err != nil || len(tables) == 0 {
				t.Fatalf("test needs a sealed SSTable: %v (err %v)", tables, err)
			}
			path := tables[0]
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			var footer [sstFooterSize]byte
			if _, err := f.ReadAt(footer[:], st.Size()-sstFooterSize); err != nil {
				t.Fatal(err)
			}
			off := tc.at(st.Size(), int64(binary.LittleEndian.Uint64(footer[0:8])))
			var one [1]byte
			if _, err := f.ReadAt(one[:], off); err != nil {
				t.Fatal(err)
			}
			one[0] ^= 0xff
			if _, err := f.WriteAt(one[:], off); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, Options{})
			if !errors.Is(err, types.ErrCorrupt) {
				if err == nil {
					r.Close()
				}
				t.Fatalf("SSTable with a flipped %s byte opened: %v", tc.name, err)
			}
		})
	}
}
