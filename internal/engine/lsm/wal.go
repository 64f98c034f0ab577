package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"rstore/internal/codec"
	"rstore/internal/types"
)

// The write-ahead log makes the memtable durable: every mutation is framed,
// checksummed, and appended to wal-<seq>.log before it touches the skiplist.
// Each record is framed as length(u32 LE), crc32(u32 LE), body — the same
// checksummed framing the wire protocol uses — so a torn write from a crash can only affect the
// un-acknowledged tail, which replay detects by checksum and truncates.
// A flush retires the whole log at once: once the memtable's contents are
// committed to an SSTable via the MANIFEST, the old log is deleted and a
// fresh empty one takes its place.

const (
	// walFrameSize is the fixed record prefix: body length + body checksum.
	walFrameSize = 8

	// walMaxBody bounds a single record body (1 GiB); larger lengths during
	// replay are treated as torn/corrupt tails, not allocations.
	walMaxBody = 1 << 30

	// walPut/walDel are record kinds: body = kind(1) table(str) key(str)
	// value(rest). A delete carries no value. walBatch frames a whole
	// BatchPut as ONE record — body = kind(1) table(str) count(uvarint)
	// then per entry key(str) value(bytes) — so the single crc32 makes the
	// batch atomic under torn writes: it replays whole or not at all.
	walPut   byte = 1
	walDel   byte = 2
	walBatch byte = 3
)

// wal is an open write-ahead log file positioned at its append offset.
type wal struct {
	f    *os.File
	seq  int64
	size int64
	buf  []byte // reused frame+body scratch
}

func createWAL(path string, seq int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return &wal{f: f, seq: seq}, nil
}

// appendRecord frames body and appends it. Durability is the caller's call:
// sync() after acked batches, nothing after single puts (matching the
// fsync-on-batch contract of engine.Backend).
func (w *wal) appendRecord(body []byte) error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(body)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(body))
	w.buf = append(w.buf, body...)
	if _, err := w.f.WriteAt(w.buf, w.size); err != nil {
		return fmt.Errorf("lsm: wal append: %w", err)
	}
	w.size += int64(len(w.buf))
	return nil
}

// encodeWALPut builds a put record body into dst: walPut table key value.
func encodeWALPut(dst []byte, table, key string, value []byte) []byte {
	dst = append(dst, walPut)
	dst = codec.PutString(dst, table)
	dst = codec.PutString(dst, key)
	return append(dst, value...)
}

// encodeWALDel builds a delete record body into dst: walDel table key.
func encodeWALDel(dst []byte, table, key string) []byte {
	dst = append(dst, walDel)
	dst = codec.PutString(dst, table)
	return codec.PutString(dst, key)
}

// encodeWALBatch builds a batch record body into dst.
func encodeWALBatch(dst []byte, table string, entries []walEntry) []byte {
	dst = append(dst, walBatch)
	dst = codec.PutString(dst, table)
	dst = codec.PutUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = codec.PutString(dst, e.key)
		dst = codec.PutBytes(dst, e.value)
	}
	return dst
}

// walEntry is one key/value of a batch record.
type walEntry struct {
	key   string
	value []byte
}

func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("lsm: wal sync: %w", err)
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replayWAL reads every intact record of the log at path, calling apply for
// each, and truncates a torn tail in place (a crash mid-append leaves a
// short or checksum-failing record, never a valid one). Corruption before
// the tail — an intact frame followed by a broken one followed by more
// intact data — cannot be distinguished from a torn tail and is handled the
// same way: everything from the first broken record on is discarded.
func replayWAL(path string, seq int64, apply func(kind byte, table, key string, value []byte) error) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: %w", err)
	}
	size := st.Size()
	var off int64
	var hdr [walFrameSize]byte
	var body []byte
	for off < size {
		if size-off < walFrameSize {
			break // torn frame header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal read: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < 1 || n > walMaxBody || off+walFrameSize+n > size {
			break // torn length or truncated body
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := f.ReadAt(body, off+walFrameSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal read: %w", err)
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
			break // torn body
		}
		kind, rest := body[0], body[1:]
		table, rest, terr := codec.String(rest)
		if terr != nil {
			f.Close()
			return nil, fmt.Errorf("%w: lsm wal record table", types.ErrCorrupt)
		}
		switch kind {
		case walPut, walDel:
			key, rest2, kerr := codec.String(rest)
			if kerr != nil {
				err = fmt.Errorf("%w: lsm wal record key", types.ErrCorrupt)
				break
			}
			if kind == walDel {
				if len(rest2) != 0 {
					err = fmt.Errorf("%w: lsm wal delete with value", types.ErrCorrupt)
					break
				}
				rest2 = nil
			}
			err = apply(kind, table, key, rest2)
		case walBatch:
			count, rest2, cerr := codec.Uvarint(rest)
			if cerr != nil {
				err = fmt.Errorf("%w: lsm wal batch count", types.ErrCorrupt)
				break
			}
			for i := uint64(0); i < count && err == nil; i++ {
				var key string
				var val []byte
				if key, rest2, err = codec.String(rest2); err != nil {
					err = fmt.Errorf("%w: lsm wal batch key", types.ErrCorrupt)
					break
				}
				if val, rest2, err = codec.Bytes(rest2); err != nil {
					err = fmt.Errorf("%w: lsm wal batch value", types.ErrCorrupt)
					break
				}
				err = apply(walPut, table, key, val)
			}
			if err == nil && len(rest2) != 0 {
				err = fmt.Errorf("%w: lsm wal batch trailing bytes", types.ErrCorrupt)
			}
		default:
			err = fmt.Errorf("%w: lsm wal record kind %d", types.ErrCorrupt, kind)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		off += walFrameSize + n
	}
	if off < size {
		// Drop the torn tail so the next append starts on a clean frame.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal truncate: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal sync: %w", err)
		}
	}
	return &wal{f: f, seq: seq, size: off}, nil
}
