// Package wire defines the binary protocol a remote storage node speaks:
// the framing and message encodings shared by the client
// (internal/engine/remote) and the server (internal/engine/remote/engined).
//
// Every message — request or response — travels in one frame:
//
//	frame   := length(uint32 LE, of payload) crc32(uint32 LE, IEEE of payload) payload
//
// The checksum makes a half-written or bit-flipped frame detectable at the
// receiver instead of being decoded into garbage operations, mirroring the
// per-record checksums of the lsm write-ahead log.
//
// Request payloads start with an op byte; response payloads start with a
// status byte. Strings and byte strings are uvarint-length-prefixed
// (internal/codec). One request yields exactly one response frame, except
// Scan, which streams StEntry frames and terminates with StEnd (or StErr).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/types"
)

// Request opcodes (first byte of a request payload).
const (
	OpPut byte = iota + 1
	OpGet
	OpDelete
	OpBatchPut
	OpScan
	OpTables
	OpBytesStored
	OpPing
	// OpCompact asks the node to compact its backend (engine.Compactor) and
	// reply with the post-compaction stats; OpCompactStats reads the stats
	// without compacting. A node whose backend cannot compact replies StErr
	// with the engine.ErrNoCompaction text.
	OpCompact
	OpCompactStats
	// OpReset asks the node to wipe its backend empty (engine.Resetter) so a
	// running daemon can be reused between benchmark or test phases. A node
	// whose backend cannot reset replies StErr with the engine.ErrNoReset
	// text.
	OpReset
	// OpMultiGet reads N keys of one table in a single round trip:
	//
	//	request  := OpMultiGet table(string) count(uvarint)
	//	            count × (key(string) prefix(uvarint))
	//	response := StOK count(uvarint) result*count   |   StErr text
	//	result   := 0x00                (key absent)
	//	          | 0x01 value(bytes)   (key present)
	//
	// prefix 0 asks for the whole value; prefix p > 0 for at most its
	// first p bytes (the replication layer's envelope-header reads).
	// Results are returned in request order and count always equals the
	// request's count. This is the batched read the cluster's MultiGet path
	// rides on: one frame out, one frame back, instead of one exchange per
	// key per replica. PutMultiGetRequest, MultiGetRequest,
	// PutMultiGetResult and MultiGetResults are the shared codec.
	OpMultiGet
	// OpHashTree fetches a hash-tree digest of one table — the anti-entropy
	// summary exchange (engine.HashRanger):
	//
	//	request  := OpHashTree table(string) fanout(uvarint)
	//	response := StOK tree-digest   |   StErr text
	//
	// A node whose backend cannot hash replies StErr with the
	// engine.ErrNoHashRange text.
	OpHashTree
	// OpHashRange drills into one bucket of the tree, listing its keys with
	// their entry hashes so the caller can diff key-by-key:
	//
	//	request  := OpHashRange table(string) fanout(uvarint) bucket(uvarint)
	//	response := StOK key-hashes   |   StErr text
	OpHashRange
)

// Response statuses (first byte of a response payload).
const (
	// StOK acknowledges the request; op-specific results follow.
	StOK byte = iota + 1
	// StErr reports a backend error; the error text follows. The operation
	// reached the node and failed there — a hard error, not unavailability.
	StErr
	// StNotFound is Get's "key absent" result (not an error; matches the
	// engine.Backend contract).
	StNotFound
	// StEntry carries one streamed Scan key/value.
	StEntry
	// StEnd terminates a Scan stream.
	StEnd
)

// PutCompactionStats appends the OpCompact/OpCompactStats response body —
// four uvarints: disk bytes, live bytes, compacted bytes, segment count.
// Shared by client and server so the encoding cannot diverge.
func PutCompactionStats(buf []byte, st engine.CompactionStats) []byte {
	buf = codec.PutUvarint(buf, uint64(st.DiskBytes))
	buf = codec.PutUvarint(buf, uint64(st.LiveBytes))
	buf = codec.PutUvarint(buf, uint64(st.CompactedBytes))
	buf = codec.PutUvarint(buf, uint64(st.Segments))
	return buf
}

// CompactionStats decodes the body PutCompactionStats produced.
func CompactionStats(body []byte) (engine.CompactionStats, error) {
	var st engine.CompactionStats
	disk, rest, err := codec.Uvarint(body)
	if err != nil {
		return st, err
	}
	live, rest, err := codec.Uvarint(rest)
	if err != nil {
		return st, err
	}
	compacted, rest, err := codec.Uvarint(rest)
	if err != nil {
		return st, err
	}
	segs, _, err := codec.Uvarint(rest)
	if err != nil {
		return st, err
	}
	st.DiskBytes = int64(disk)
	st.LiveBytes = int64(live)
	st.CompactedBytes = int64(compacted)
	st.Segments = int(segs)
	return st, nil
}

// PutMultiGetRequest appends the OpMultiGet request body (everything after
// the op byte). prefix[i] is the byte budget of keys[i], 0 meaning the
// whole value; a nil prefix asks for every value whole.
func PutMultiGetRequest(buf []byte, table string, keys []string, prefix []int) []byte {
	buf = codec.PutString(buf, table)
	buf = codec.PutUvarint(buf, uint64(len(keys)))
	for i, k := range keys {
		buf = codec.PutString(buf, k)
		p := 0
		if prefix != nil {
			p = prefix[i]
		}
		buf = codec.PutUvarint(buf, uint64(p))
	}
	return buf
}

// MultiGetRequest decodes the body PutMultiGetRequest produced; prefix
// always comes back with one entry per key. The count is checked against
// the body before anything is sized (each key costs at least two bytes:
// its length and its prefix), a prefix past MaxFrame is refused, and
// trailing bytes are a framing error.
func MultiGetRequest(body []byte) (table string, keys []string, prefix []int, err error) {
	table, rest, err := codec.String(body)
	if err != nil {
		return "", nil, nil, err
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return "", nil, nil, err
	}
	if n > uint64(len(rest))/2 {
		return "", nil, nil, fmt.Errorf("%w: multiget announces %d keys in %d bytes", types.ErrCorrupt, n, len(rest))
	}
	keys = make([]string, n)
	prefix = make([]int, n)
	for i := range keys {
		if keys[i], rest, err = codec.String(rest); err != nil {
			return "", nil, nil, err
		}
		var p uint64
		if p, rest, err = codec.Uvarint(rest); err != nil {
			return "", nil, nil, err
		}
		if p > MaxFrame {
			return "", nil, nil, fmt.Errorf("%w: multiget prefix %d exceeds frame limit", types.ErrCorrupt, p)
		}
		prefix[i] = int(p)
	}
	if len(rest) != 0 {
		return "", nil, nil, fmt.Errorf("%w: %d trailing bytes after multiget keys", types.ErrCorrupt, len(rest))
	}
	return table, keys, prefix, nil
}

// PutMultiGetResult appends one key's result to an OpMultiGet response
// body: 0x00 when absent, 0x01 and the value when present.
func PutMultiGetResult(buf, value []byte, present bool) []byte {
	if !present {
		return append(buf, 0)
	}
	return codec.PutBytes(append(buf, 1), value)
}

// MultiGetResults decodes an OpMultiGet StOK body answering n keys read
// with prefix (nil: all whole). Values are copied out of body, which
// aliases a receive buffer. The body must answer exactly n keys, a
// prefixed key's value may not exceed its prefix, and trailing bytes are a
// framing error.
func MultiGetResults(body []byte, n int, prefix []int) (values [][]byte, present []bool, err error) {
	count, rest, err := codec.Uvarint(body)
	if err != nil {
		return nil, nil, err
	}
	if count != uint64(n) {
		return nil, nil, fmt.Errorf("%w: multiget answered %d of %d keys", types.ErrCorrupt, count, n)
	}
	values = make([][]byte, n)
	present = make([]bool, n)
	for i := range values {
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("%w: truncated multiget response", types.ErrCorrupt)
		}
		flag := rest[0]
		rest = rest[1:]
		switch flag {
		case 0:
		case 1:
			var v []byte
			if v, rest, err = codec.Bytes(rest); err != nil {
				return nil, nil, err
			}
			if prefix != nil && prefix[i] > 0 && len(v) > prefix[i] {
				return nil, nil, fmt.Errorf("%w: multiget returned %d bytes for a %d-byte prefix", types.ErrCorrupt, len(v), prefix[i])
			}
			values[i] = append([]byte(nil), v...)
			present[i] = true
		default:
			return nil, nil, fmt.Errorf("%w: multiget result flag %d", types.ErrCorrupt, flag)
		}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after multiget results", types.ErrCorrupt, len(rest))
	}
	return values, present, nil
}

// putU64 appends a fixed 8-byte little-endian integer. Hashes travel
// fixed-width: a uniformly distributed 64-bit value averages more than 8
// bytes as a uvarint.
func putU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// u64 consumes a fixed 8-byte little-endian integer.
func u64(body []byte) (uint64, []byte, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("%w: short u64", types.ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(body), body[8:], nil
}

// PutHashTree appends the OpHashTree response body: root(u64le)
// bytesHashed(uvarint) count(uvarint) count × (hash(u64le) keys(uvarint)).
// Shared by client and server so the encoding cannot diverge.
func PutHashTree(buf []byte, d engine.TreeDigest) []byte {
	buf = putU64(buf, d.Root)
	buf = codec.PutUvarint(buf, uint64(d.Bytes))
	buf = codec.PutUvarint(buf, uint64(len(d.Leaves)))
	for _, l := range d.Leaves {
		buf = putU64(buf, l.Hash)
		buf = codec.PutUvarint(buf, l.Keys)
	}
	return buf
}

// HashTree decodes the body PutHashTree produced. The leaf count is
// validated against both engine.MaxHashFanout and the remaining body
// before the slice is sized, and trailing bytes after the declared leaves
// are a framing error — a corrupt frame cannot force an allocation or
// smuggle data.
func HashTree(body []byte) (engine.TreeDigest, error) {
	var d engine.TreeDigest
	root, rest, err := u64(body)
	if err != nil {
		return d, err
	}
	hashed, rest, err := codec.Uvarint(rest)
	if err != nil {
		return d, err
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return d, err
	}
	// Each leaf is at least 9 bytes (8-byte hash + ≥1-byte count).
	if n > engine.MaxHashFanout || n > uint64(len(rest))/9+1 {
		return d, fmt.Errorf("%w: hash tree announces %d leaves in %d bytes", types.ErrCorrupt, n, len(rest))
	}
	d.Root = root
	d.Bytes = int64(hashed)
	d.Leaves = make([]engine.LeafDigest, n)
	for i := range d.Leaves {
		if d.Leaves[i].Hash, rest, err = u64(rest); err != nil {
			return engine.TreeDigest{}, err
		}
		if d.Leaves[i].Keys, rest, err = codec.Uvarint(rest); err != nil {
			return engine.TreeDigest{}, err
		}
	}
	if len(rest) != 0 {
		return engine.TreeDigest{}, fmt.Errorf("%w: %d trailing bytes after hash tree", types.ErrCorrupt, len(rest))
	}
	return d, nil
}

// PutHashRange appends the OpHashRange response body: count(uvarint)
// count × (key(string) hash(u64le)).
func PutHashRange(buf []byte, khs []engine.KeyHash) []byte {
	buf = codec.PutUvarint(buf, uint64(len(khs)))
	for _, kh := range khs {
		buf = codec.PutString(buf, kh.Key)
		buf = putU64(buf, kh.Hash)
	}
	return buf
}

// HashRange decodes the body PutHashRange produced, with the same
// count-before-allocation and no-trailing-bytes discipline as HashTree.
func HashRange(body []byte) ([]engine.KeyHash, error) {
	n, rest, err := codec.Uvarint(body)
	if err != nil {
		return nil, err
	}
	// Each entry is at least 9 bytes (≥1-byte length prefix + 8-byte hash).
	if n > uint64(len(rest))/9+1 {
		return nil, fmt.Errorf("%w: hash range announces %d keys in %d bytes", types.ErrCorrupt, n, len(rest))
	}
	out := make([]engine.KeyHash, n)
	for i := range out {
		if out[i].Key, rest, err = codec.String(rest); err != nil {
			return nil, err
		}
		if out[i].Hash, rest, err = u64(rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after hash range", types.ErrCorrupt, len(rest))
	}
	return out, nil
}

// frameHeader is the fixed prefix of every frame: payload length + checksum.
const frameHeader = 8

// MaxFrame bounds a single payload (1 GiB, matching the lsm WAL's
// walMaxBody):
// larger announced lengths are treated as stream corruption rather than
// allocated.
const MaxFrame = 1 << 30

// WriteFrame frames payload onto w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, verifying the checksum. The payload is
// read into buf when it fits (the returned slice then aliases buf), so a
// caller looping over frames can reuse one buffer.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: wire frame announces %d bytes", types.ErrCorrupt, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: wire frame checksum mismatch", types.ErrCorrupt)
	}
	return payload, nil
}
