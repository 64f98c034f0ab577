package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// Decoder hardening: arbitrary bytes off the network must never panic the
// frame reader, and anything it accepts must be a frame WriteFrame could
// have produced.

func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, []byte("hello, frame")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A header announcing more than MaxFrame with no body: must be
	// rejected as corruption, not allocated.
	huge := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrame+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // torn/corrupt input; rejecting is the contract
		}
		// An accepted frame must re-encode to exactly the bytes consumed.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-encoding accepted payload: %v", err)
		}
		if len(data) < out.Len() || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted frame does not round-trip: read %d-byte payload from %d input bytes", len(payload), len(data))
		}
		// Reading into a reused buffer must yield the same payload.
		again, err := ReadFrame(bytes.NewReader(data), make([]byte, 0, 64))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("buffer-reuse read disagrees: %v", err)
		}
	})
}

// The hash-tree payload decoders guard the anti-entropy path: their input
// is whatever a peer (or a corrupted stream the frame checksum happened to
// miss) put on the wire. Rejections must classify as corruption, accepted
// inputs must round-trip semantically — byte-identity is not required
// because uvarints admit non-canonical encodings, but decode(encode(
// decode(x))) must be a fixed point.

func FuzzHashTreeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(PutHashTree(nil, engine.TreeDigest{}))
	f.Add(PutHashTree(nil, engine.TreeDigest{
		Root:   0xdeadbeefcafef00d,
		Bytes:  12345,
		Leaves: []engine.LeafDigest{{Hash: 1, Keys: 2}, {Hash: 0, Keys: 0}, {Hash: 1 << 63, Keys: 1}},
	}))
	// A leaf count past MaxHashFanout must be rejected before allocation.
	var huge []byte
	huge = putU64(huge, 1)
	huge = append(huge, 0) // bytes
	huge = binary.AppendUvarint(huge, engine.MaxHashFanout+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := HashTree(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("rejection not classified as corruption: %v", err)
			}
			return
		}
		if uint64(len(d.Leaves)) > engine.MaxHashFanout {
			t.Fatalf("accepted %d leaves past the fanout limit", len(d.Leaves))
		}
		// Semantic round-trip: re-encoding the accepted digest and decoding
		// it again must reproduce it exactly.
		again, err := HashTree(PutHashTree(nil, d))
		if err != nil {
			t.Fatalf("re-decoding accepted digest: %v", err)
		}
		if again.Root != d.Root || again.Bytes != d.Bytes || len(again.Leaves) != len(d.Leaves) {
			t.Fatalf("digest does not round-trip: %+v vs %+v", again, d)
		}
		for i := range d.Leaves {
			if again.Leaves[i] != d.Leaves[i] {
				t.Fatalf("leaf %d does not round-trip: %+v vs %+v", i, again.Leaves[i], d.Leaves[i])
			}
		}
	})
}

func FuzzHashRangeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(PutHashRange(nil, nil))
	f.Add(PutHashRange(nil, []engine.KeyHash{
		{Key: "alpha", Hash: 42},
		{Key: "", Hash: 0},
		{Key: "z\x00binary", Hash: 1 << 63},
	}))
	// A count the body cannot hold must be rejected before allocation.
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		khs, err := HashRange(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("rejection not classified as corruption: %v", err)
			}
			return
		}
		again, err := HashRange(PutHashRange(nil, khs))
		if err != nil {
			t.Fatalf("re-decoding accepted key hashes: %v", err)
		}
		if len(again) != len(khs) {
			t.Fatalf("length does not round-trip: %d vs %d", len(again), len(khs))
		}
		for i := range khs {
			if again[i] != khs[i] {
				t.Fatalf("entry %d does not round-trip: %+v vs %+v", i, again[i], khs[i])
			}
		}
	})
}

// FuzzMultiGetFrame hardens both halves of the shared OpMultiGet codec:
// arbitrary request bodies must decode or be rejected as corruption, never
// panic or size an allocation past the body; the response decoder, run
// against the accepted request's key count and prefixes, must enforce the
// count and every prefix bound. Anything accepted must round-trip through
// the encoders.
func FuzzMultiGetFrame(f *testing.F) {
	req := PutMultiGetRequest(nil, "chunks", []string{"a", "a", "", "z\x00k"}, []int{0, 9, 9, 1 << 20})
	var resp []byte
	resp = binary.AppendUvarint(resp, 4)
	resp = PutMultiGetResult(resp, []byte("whole value"), true)
	resp = PutMultiGetResult(resp, []byte("header123"), true)
	resp = PutMultiGetResult(resp, nil, false)
	resp = PutMultiGetResult(resp, nil, true)
	f.Add(req, resp)
	f.Add(PutMultiGetRequest(nil, "t", nil, nil), binary.AppendUvarint(nil, 0))
	f.Add([]byte{}, []byte{})
	// A key count the body cannot hold must be rejected before allocation.
	f.Add(binary.AppendUvarint(PutMultiGetRequest(nil, "t", nil, nil)[:2], 1<<40), []byte{})
	// A prefixed result longer than its prefix must be rejected.
	over := PutMultiGetResult(binary.AppendUvarint(nil, 1), []byte("0123456789"), true)
	f.Add(PutMultiGetRequest(nil, "t", []string{"k"}, []int{9}), over)
	f.Fuzz(func(t *testing.T, reqBody, respBody []byte) {
		n, prefix := len(respBody)%4, []int(nil)
		table, keys, pre, err := MultiGetRequest(reqBody)
		switch {
		case err != nil:
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("request rejection not classified as corruption: %v", err)
			}
		default:
			if len(keys) > len(reqBody)/2 || len(pre) != len(keys) {
				t.Fatalf("accepted %d keys, %d prefixes from a %d-byte body", len(keys), len(pre), len(reqBody))
			}
			t2, k2, p2, err := MultiGetRequest(PutMultiGetRequest(nil, table, keys, pre))
			if err != nil {
				t.Fatalf("re-decoding accepted request: %v", err)
			}
			if t2 != table || len(k2) != len(keys) {
				t.Fatalf("request does not round-trip: %q/%d vs %q/%d", t2, len(k2), table, len(keys))
			}
			for i := range keys {
				if k2[i] != keys[i] || p2[i] != pre[i] {
					t.Fatalf("key %d does not round-trip: %q/%d vs %q/%d", i, k2[i], p2[i], keys[i], pre[i])
				}
			}
			n, prefix = len(keys), pre
		}

		values, present, err := MultiGetResults(respBody, n, prefix)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("response rejection not classified as corruption: %v", err)
			}
			return
		}
		if len(values) != n || len(present) != n {
			t.Fatalf("accepted %d values, %d flags for %d keys", len(values), len(present), n)
		}
		again := binary.AppendUvarint(nil, uint64(n))
		for i := range values {
			if prefix != nil && prefix[i] > 0 && len(values[i]) > prefix[i] {
				t.Fatalf("result %d: %d bytes accepted for a %d-byte prefix", i, len(values[i]), prefix[i])
			}
			if !present[i] && values[i] != nil {
				t.Fatalf("result %d: absent key carries %q", i, values[i])
			}
			again = PutMultiGetResult(again, values[i], present[i])
		}
		v2, p2, err := MultiGetResults(again, n, prefix)
		if err != nil {
			t.Fatalf("re-decoding accepted response: %v", err)
		}
		for i := range values {
			if p2[i] != present[i] || !bytes.Equal(v2[i], values[i]) {
				t.Fatalf("result %d does not round-trip", i)
			}
		}
	})
}
