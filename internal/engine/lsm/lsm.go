// Package lsm is the log-structured merge-tree storage engine, the one
// durable engine.Backend: built for read-heavy, version-dense workloads
// (the RStore premise — many overlapping versions under heavy read
// traffic).
//
// Writes land in a sorted in-memory memtable (a skiplist) after being made
// durable in a checksummed write-ahead log; a full memtable is flushed into
// an immutable sorted-string table (SSTable) with a per-block restart-point
// format, a block index, and a bloom filter. Point reads probe a hot-key
// row cache first (one lookup answers a repeated Get), then the memtable,
// then each SSTable from newest to oldest — the bloom filter skips tables
// that cannot hold the key, and a shared LRU block cache serves hot blocks
// without touching disk. Size-tiered compaction merges runs of adjacent
// tables, dropping shadowed versions, and a full merge (the Compactor
// interface) also drops tombstones. The MANIFEST names the live files; its
// atomic rename is the commit point for every structural change, which is
// what makes flush, compaction, and reset crash-safe.
//
// Directory layout: MANIFEST, LOCK (flock), wal-<seq>.log (exactly one
// live), sst-<seq>.sst (oldest first per the MANIFEST). The directory is
// flock-ed for the lifetime of the backend: one logical writer per data
// directory. See docs/FORMATS.md for the normative byte
// formats.
package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/types"
)

// Options tune a Backend; the zero value selects production defaults.
type Options struct {
	// MemtableBytes is the approximate resident size at which the memtable
	// is flushed to an SSTable (default 4 MiB). Tests set it small to force
	// flushes.
	MemtableBytes int64

	// MaxTables is the SSTable count that triggers size-tiered compaction
	// after a flush (default 8).
	MaxTables int

	// Cache is the block cache serving reads. Passing one instance to every
	// backend of a cluster shares its capacity across nodes; nil gives the
	// backend a private default cache.
	Cache *BlockCache

	// RowCacheBytes bounds the per-backend row cache that answers repeated
	// point reads of hot keys with a single probe (default 8 MiB; negative
	// disables it). Unlike Cache it is never shared: replicas may diverge
	// mid-repair, so row entries are private per data directory.
	RowCacheBytes int64
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 8
	}
	if o.Cache == nil {
		o.Cache = NewBlockCache(0)
	}
	if o.RowCacheBytes == 0 {
		o.RowCacheBytes = 8 << 20
	}
	return o
}

// ErrCrashed reports that a crash-injection point fired (tests only): the
// backend stopped mid-operation exactly as a power failure would, and must
// be Kill-ed and reopened.
var ErrCrashed = errors.New("lsm: injected crash")

var (
	_ engine.Backend      = (*Backend)(nil)
	_ engine.Compactor    = (*Backend)(nil)
	_ engine.Resetter     = (*Backend)(nil)
	_ engine.HashRanger   = (*Backend)(nil)
	_ engine.PrefixGetter = (*Backend)(nil)
)

// Backend is the LSM engine for one node's data directory. It implements
// engine.Backend, engine.Compactor, and engine.Resetter.
type Backend struct {
	dir   string
	opts  Options
	cache *BlockCache
	rows  *rowCache // hot-key row cache; nil when disabled
	lock  *os.File  // flock-held LOCK file; released on Close

	// mu guards all mutable state below. The write path (Put/Delete/
	// BatchPut/flush) holds it exclusively; reads share it.
	mu     sync.RWMutex
	closed bool
	// epoch counts Resets; a compaction validates it before committing so a
	// concurrent wipe can never resurrect merged data.
	epoch   int64
	mem     *memtable
	wal     *wal
	tables  []*sstable // age order: oldest first, newest last
	nextSeq int64
	// bytes is Σ len(value) over live keys — the BytesStored contract.
	bytes int64
	// keys counts live keys per user table, backing Tables().
	keys map[string]int
	// compacted accumulates disk bytes freed by Compact (its flush and
	// merge together) and by size-tiered merges (CompactionStats).
	compacted int64
	// gen counts logical-content changes (every applied put/delete/reset);
	// flush and merge leave it alone because they do not change contents.
	// hashMemo caches the last HashTree digest per (table, fanout) at the
	// gen it was computed, so repeated anti-entropy sweeps over unchanged
	// tables skip the merged scan entirely (see hashtree.go).
	gen      int64
	hashMemo map[hashMemoKey]hashMemoEntry

	// compactMu serializes merges (explicit Compact and post-flush
	// size-tiered compaction) so two merges can never race over the same
	// victim tables.
	compactMu sync.Mutex

	// crash names the active crash-injection point ("" in production).
	crash string

	walBuf []byte // record scratch, guarded by mu (write path only)
}

// Open mounts (creating if needed) the LSM store in dir and recovers it:
// debris from crashes is deleted, the MANIFEST's tables are mounted and
// scanned to rebuild accounting, and the WAL is replayed into a fresh
// memtable (truncating a torn tail).
func Open(dir string, opts Options) (*Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		dir:  dir,
		opts: opts.withDefaults(),
		lock: lock,
		mem:  newMemtable(),
		keys: map[string]int{},
	}
	b.cache = b.opts.Cache
	if b.opts.RowCacheBytes > 0 {
		b.rows = newRowCache(b.opts.RowCacheBytes)
	}
	if err := b.recover(); err != nil {
		b.closeFiles()
		return nil, err
	}
	return b, nil
}

func (b *Backend) recover() error {
	nextSeq, walSeq, sstSeqs, exists, err := readManifest(b.dir)
	if !exists && err == nil {
		if err := refuseDisklogDir(b.dir); err != nil {
			return err
		}
		// Never initialized (or crashed before the first commit): any lsm
		// files present are uncommitted debris from that first attempt.
		if err := b.removeDebris(map[string]bool{}); err != nil {
			return err
		}
		b.nextSeq = 2
		w, err := createWAL(b.walPath(1), 1)
		if err != nil {
			return err
		}
		if err := syncDir(b.dir); err != nil {
			w.close()
			return err
		}
		if err := writeManifest(b.dir, b.nextSeq, 1, nil); err != nil {
			w.close()
			return err
		}
		b.wal = w
		return nil
	}
	if err != nil {
		return err
	}
	b.nextSeq = nextSeq
	referenced := map[string]bool{filepath.Base(b.walPath(walSeq)): true}
	for _, seq := range sstSeqs {
		referenced[filepath.Base(b.sstPath(seq))] = true
	}
	if err := b.removeDebris(referenced); err != nil {
		return err
	}
	for _, seq := range sstSeqs {
		t, err := openSSTable(b.sstPath(seq), seq)
		if err != nil {
			return err
		}
		b.tables = append(b.tables, t)
	}
	if err := b.rebuildAccounting(); err != nil {
		return err
	}
	// Replay the WAL through the normal apply path so memtable state and
	// accounting (including decrements against just-mounted tables) are
	// rebuilt exactly as the original writes built them.
	w, err := replayWAL(b.walPath(walSeq), walSeq, func(kind byte, table, key string, value []byte) error {
		ik := ikey(table, key)
		if kind == walDel {
			return b.applyDelLocked(table, ik)
		}
		return b.applyPutLocked(table, ik, append([]byte(nil), value...))
	})
	if err != nil {
		return err
	}
	b.wal = w
	return nil
}

// refuseDisklogDir fails when dir holds the segment files (seg-*.log,
// seg-*.log.cmp) of the removed disklog engine. Without a MANIFEST such a
// directory would otherwise open as a fresh empty store and serve an
// empty node over data this engine cannot read.
func refuseDisklogDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && (strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".log.cmp")) {
			return fmt.Errorf("lsm: %s was written by the removed disklog engine (found %s and no MANIFEST): "+
				"export it with the previous release (kvstore.Store.Dump on a disklog cluster) and Restore the snapshot into an lsm cluster", dir, name)
		}
	}
	return nil
}

// removeDebris deletes every lsm-owned file (sst-*.sst, wal-*.log, *.tmp)
// not in referenced. Foreign files (GEOMETRY and friends) are left alone.
func (b *Backend) removeDebris(referenced map[string]bool) error {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		ours := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".sst")) ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"))
		if !ours {
			continue
		}
		if err := os.Remove(filepath.Join(b.dir, name)); err != nil {
			return fmt.Errorf("lsm: %w", err)
		}
		removed = true
	}
	if removed {
		return syncDir(b.dir)
	}
	return nil
}

// rebuildAccounting replays a merged scan of the mounted tables (no
// memtable yet) to reconstruct live bytes, per-table key counts, and each
// table's live counter.
func (b *Backend) rebuildAccounting() error {
	if len(b.tables) == 0 {
		return nil
	}
	sources := make([]source, len(b.tables))
	for i, t := range b.tables {
		it, err := t.iterGE(nil, b.cache)
		if err != nil {
			return err
		}
		sources[i] = it
	}
	dead := make([]int64, len(b.tables))
	err := mergeSources(sources,
		func(key, value []byte, tomb bool, src int) error {
			if tomb {
				dead[src] += logicalSize(len(key), len(value))
				return nil
			}
			table, _, err := splitIKey(key)
			if err != nil {
				return err
			}
			b.bytes += int64(len(value))
			b.keys[table]++
			return nil
		},
		func(src int, keyLen, valLen int) error {
			dead[src] += logicalSize(keyLen, valLen)
			return nil
		})
	if err != nil {
		return err
	}
	for i, t := range b.tables {
		t.live = t.size - dead[i]
	}
	return nil
}

// appendIKey appends the internal key for (table, key) to dst: uvarint(
// len(table)) table key. The uvarint prefix is self-delimiting, so distinct
// tables produce prefix-free ranges and bytewise order groups each table's
// keys contiguously.
func appendIKey(dst []byte, table, key string) []byte {
	dst = codec.PutUvarint(dst, uint64(len(table)))
	dst = append(dst, table...)
	return append(dst, key...)
}

// ikey builds the internal key for (table, key) in a fresh allocation.
func ikey(table, key string) []byte {
	out := make([]byte, 0, codec.UvarintLen(uint64(len(table)))+len(table)+len(key))
	return appendIKey(out, table, key)
}

// tablePrefix is the internal-key prefix shared by every key of table.
func tablePrefix(table string) []byte {
	out := codec.PutUvarint(nil, uint64(len(table)))
	return append(out, table...)
}

// prefixSuccessor returns the smallest byte string greater than every
// string with prefix p (nil when p is all 0xff: no upper bound).
func prefixSuccessor(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			out := append([]byte(nil), p[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}

// splitIKey inverts ikey.
func splitIKey(ik []byte) (table, key string, err error) {
	l, rest, err := codec.Uvarint(ik)
	if err != nil || uint64(len(rest)) < l {
		return "", "", fmt.Errorf("%w: lsm internal key", types.ErrCorrupt)
	}
	return string(rest[:l]), string(rest[l:]), nil
}

// lookupLocked finds the newest version of ik: (value length, source table
// index or -1 for the memtable, found). A tombstone anywhere newest means
// not found. Callers hold b.mu (any mode).
func (b *Backend) lookupLocked(ik []byte) (valLen, src int, found bool, err error) {
	if v, tomb, ok := b.mem.get(ik); ok {
		if tomb {
			return 0, 0, false, nil
		}
		return len(v), -1, true, nil
	}
	for i := len(b.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := b.tables[i].get(ik, b.cache)
		if err != nil {
			return 0, 0, false, err
		}
		if ok {
			if tomb {
				return 0, 0, false, nil
			}
			return len(v), i, true, nil
		}
	}
	return 0, 0, false, nil
}

// applyPutLocked installs value (already copied) under ik, updating live
// accounting: a shadowed older version stops being live wherever it lives.
func (b *Backend) applyPutLocked(table string, ik, value []byte) error {
	if b.rows != nil {
		b.rows.invalidate(ik)
	}
	prevLen, src, found, err := b.lookupLocked(ik)
	if err != nil {
		return err
	}
	if found {
		b.bytes -= int64(prevLen)
		if src >= 0 {
			b.tables[src].live -= logicalSize(len(ik), prevLen)
		}
	} else {
		b.keys[table]++
	}
	b.bytes += int64(len(value))
	b.mem.set(ik, value, false)
	b.gen++
	return nil
}

// applyDelLocked installs a tombstone under ik if the key currently exists;
// deleting a missing key is a no-op that writes nothing.
func (b *Backend) applyDelLocked(table string, ik []byte) error {
	if b.rows != nil {
		b.rows.invalidate(ik)
	}
	prevLen, src, found, err := b.lookupLocked(ik)
	if err != nil || !found {
		return err
	}
	b.bytes -= int64(prevLen)
	if src >= 0 {
		b.tables[src].live -= logicalSize(len(ik), prevLen)
	}
	if b.keys[table]--; b.keys[table] <= 0 {
		delete(b.keys, table)
	}
	b.mem.set(ik, nil, true)
	b.gen++
	return nil
}

// Put stores value under (table, key). It is durable no later than the next
// BatchPut, flush, or Close.
func (b *Backend) Put(ctx context.Context, table, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	b.walBuf = encodeWALPut(b.walBuf[:0], table, key, value)
	if err := b.wal.appendRecord(b.walBuf); err != nil {
		return err
	}
	if err := b.applyPutLocked(table, ikey(table, key), append([]byte(nil), value...)); err != nil {
		return err
	}
	return b.maybeFlushLocked(ctx)
}

// BatchPut appends the whole batch as one checksummed WAL record and fsyncs
// before acknowledging, so the batch replays whole or not at all — the
// single record's crc32 is what makes fsync-on-batch atomic under torn
// writes.
func (b *Backend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	wes := make([]walEntry, len(entries))
	for i, e := range entries {
		wes[i] = walEntry{key: e.Key, value: e.Value}
	}
	b.walBuf = encodeWALBatch(b.walBuf[:0], table, wes)
	if err := b.wal.appendRecord(b.walBuf); err != nil {
		return err
	}
	if err := b.wal.sync(); err != nil {
		return err
	}
	// Applied in order, so a later entry for the same key wins.
	for _, e := range entries {
		if err := b.applyPutLocked(table, ikey(table, e.Key), append([]byte(nil), e.Value...)); err != nil {
			return err
		}
	}
	return b.maybeFlushLocked(ctx)
}

// Get returns a copy of the newest value under (table, key).
func (b *Backend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	return b.get(ctx, table, key, -1)
}

// GetPrefix (engine.PrefixGetter) returns a copy of at most the first n
// bytes of the newest value under (table, key). It copies only those bytes
// and never fills the row cache: the replication layer sends these header
// reads to every replica but the serving one, and they must not evict the
// rows that replica keeps hot for whole reads.
func (b *Backend) GetPrefix(ctx context.Context, table, key string, n int) ([]byte, bool, error) {
	return b.get(ctx, table, key, max(n, 0))
}

// get serves Get (limit < 0: whole value, filling the row cache) and
// GetPrefix (limit ≥ 0: the first limit bytes, cache left alone).
func (b *Backend) get(ctx context.Context, table, key string, limit int) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, false, types.ErrClosed
	}
	// Short keys build their internal form on the stack: the point-read
	// hot path should cost a cache probe, not an allocation.
	var ikb [96]byte
	ik := appendIKey(ikb[:0], table, key)
	// Row-cache fills happen under the read lock and invalidations under
	// the write lock, so a hit here is always the newest committed value.
	if b.rows != nil {
		if v, ok := b.rows.get(ik, limit); ok {
			return v, true, nil
		}
	}
	v, tomb, ok := b.mem.get(ik)
	for i := len(b.tables) - 1; !ok && i >= 0; i-- {
		var err error
		if v, tomb, ok, err = b.tables[i].get(ik, b.cache); err != nil {
			return nil, false, err
		}
	}
	if !ok || tomb {
		return nil, false, nil
	}
	if limit < 0 {
		if b.rows != nil {
			b.rows.put(ik, v)
		}
	} else if len(v) > limit {
		v = v[:limit]
	}
	return append([]byte(nil), v...), true, nil
}

// Delete removes (table, key) by writing a tombstone; deleting a missing
// key writes nothing.
func (b *Backend) Delete(ctx context.Context, table, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	ik := ikey(table, key)
	// Look before logging: a no-op delete must not grow the WAL.
	_, _, found, err := b.lookupLocked(ik)
	if err != nil || !found {
		return err
	}
	b.walBuf = encodeWALDel(b.walBuf[:0], table, key)
	if err := b.wal.appendRecord(b.walBuf); err != nil {
		return err
	}
	if err := b.applyDelLocked(table, ik); err != nil {
		return err
	}
	return b.maybeFlushLocked(ctx)
}

// errStopScan aborts a merged scan early (fn returned false, or the range
// end was passed); it never escapes to callers.
var errStopScan = errors.New("lsm: stop scan")

// Scan visits every live key of table in key order. Values passed to fn may
// alias the memtable or cached blocks; fn must not retain or mutate them.
func (b *Backend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return types.ErrClosed
	}
	prefix := tablePrefix(table)
	end := prefixSuccessor(prefix)
	sources := make([]source, 0, len(b.tables)+1)
	for _, t := range b.tables {
		it, err := t.iterGE(prefix, b.cache)
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	sources = append(sources, b.mem.iter(prefix)) // newest last
	err := mergeSources(sources, func(key, value []byte, tomb bool, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if end != nil && bytes.Compare(key, end) >= 0 {
			return errStopScan
		}
		if tomb {
			return nil
		}
		_, userKey, err := splitIKey(key)
		if err != nil {
			return err
		}
		if !fn(userKey, value) {
			return errStopScan
		}
		return nil
	}, nil)
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// Tables lists the user tables currently holding at least one live key.
func (b *Backend) Tables(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, types.ErrClosed
	}
	out := make([]string, 0, len(b.keys))
	for t := range b.keys {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// BytesStored reports the summed length of all live values.
func (b *Backend) BytesStored() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.bytes
}

// Close fsyncs the WAL (making every acknowledged write durable) and
// releases the directory. Close after Close is a no-op.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.wal.sync()
	if cerr := b.wal.close(); err == nil && cerr != nil {
		err = fmt.Errorf("lsm: %w", cerr)
	}
	for _, t := range b.tables {
		if cerr := t.close(); err == nil && cerr != nil {
			err = fmt.Errorf("lsm: %w", cerr)
		}
	}
	if cerr := b.lock.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("lsm: %w", cerr)
	}
	return err
}

// Reset wipes the store back to empty in one crash-safe step: a new empty
// WAL is created, the MANIFEST is committed referencing only it, and every
// old file is then deleted. The epoch bump makes any in-flight compaction
// abandon its output rather than resurrect wiped data.
func (b *Backend) Reset(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	walSeq := b.nextSeq
	b.nextSeq++
	w, err := createWAL(b.walPath(walSeq), walSeq)
	if err != nil {
		return err
	}
	if err := syncDir(b.dir); err != nil {
		w.close()
		return err
	}
	if err := writeManifest(b.dir, b.nextSeq, walSeq, nil); err != nil {
		w.close()
		return err
	}
	// Committed: tear down the old state.
	b.epoch++
	b.gen++
	b.hashMemo = nil
	if b.rows != nil {
		b.rows.wipe()
	}
	oldWAL, oldTables := b.wal, b.tables
	b.wal, b.tables = w, nil
	b.mem = newMemtable()
	b.bytes = 0
	b.keys = map[string]int{}
	oldWAL.close()
	os.Remove(b.walPath(oldWAL.seq))
	for _, t := range oldTables {
		t.close()
		os.Remove(t.path)
	}
	return syncDir(b.dir)
}

// SetCrashPoint arms a crash-injection point (tests only): the named
// internal step fails with ErrCrashed exactly where a power failure would
// cut. Recognized points: "mid-flush", "flush-renamed", "mid-merge",
// "merge-renamed", "merge-manifested". Empty disarms.
func (b *Backend) SetCrashPoint(point string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crash = point
}

// Kill simulates process death (tests only): every file handle and the
// directory lock are dropped with no syncing and no cleanup, leaving the
// on-disk state exactly as the crash left it. The backend is unusable
// afterwards; reopen the directory with Open.
func (b *Backend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.closeFiles()
}

// closeFiles drops every descriptor without syncing; callers hold b.mu.
func (b *Backend) closeFiles() {
	if b.wal != nil {
		b.wal.close()
	}
	for _, t := range b.tables {
		t.close()
	}
	if b.lock != nil {
		b.lock.Close() // releases the flock
	}
}

func (b *Backend) sstPath(seq int64) string {
	return filepath.Join(b.dir, fmt.Sprintf("sst-%06d.sst", seq))
}

func (b *Backend) walPath(seq int64) string {
	return filepath.Join(b.dir, fmt.Sprintf("wal-%06d.log", seq))
}

// acquireLock takes an exclusive, non-blocking flock on dir/LOCK. The lock
// dies with the process, so a crash never wedges the directory.
func acquireLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	return nil
}
