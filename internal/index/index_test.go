package index

import (
	"context"
	"slices"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

func TestProjectionsBasics(t *testing.T) {
	p := New()
	p.ObserveVersionChunk(1, 5)
	p.ObserveVersionChunk(1, 5) // consecutive duplicate suppressed
	p.ObserveVersionChunk(1, 2)
	p.ObserveVersionChunk(2, 7)
	p.AddKeyChunk("a", 5)
	p.AddKeyChunk("a", 2)
	p.AddKeyChunk("b", 7)
	p.Normalize()

	if got := p.VersionChunks(1); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("VersionChunks(1) = %v", got)
	}
	if got := p.KeyChunks("a"); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("KeyChunks(a) = %v", got)
	}
	if p.VersionChunks(9) != nil || p.KeyChunks("zz") != nil {
		t.Fatal("unknown entries non-nil")
	}
	if p.VersionSpan(1) != 2 || p.KeySpan("b") != 1 {
		t.Fatal("span accessors")
	}
	if p.TotalVersionSpan() != 3 || p.TotalKeySpan() != 3 {
		t.Fatalf("totals: %d %d", p.TotalVersionSpan(), p.TotalKeySpan())
	}
	if p.NumVersions() != 2 || p.NumKeys() != 2 {
		t.Fatal("counts")
	}
	vb, kb := p.SizeBytes()
	if vb != 12 || kb != 4*3+2 {
		t.Fatalf("SizeBytes = %d, %d", vb, kb)
	}
}

func TestNormalizeDedupes(t *testing.T) {
	p := New()
	// Non-consecutive duplicates survive until Normalize.
	p.ObserveVersionChunk(1, 5)
	p.ObserveVersionChunk(1, 2)
	p.ObserveVersionChunk(1, 5)
	p.Normalize()
	if got := p.VersionChunks(1); len(got) != 2 {
		t.Fatalf("normalize left %v", got)
	}
}

func TestIntersect(t *testing.T) {
	p := New()
	for _, c := range []uint32{1, 3, 5, 9} {
		p.ObserveVersionChunk(4, c)
	}
	for _, c := range []uint32{2, 3, 9, 12} {
		p.AddKeyChunk("k", c)
	}
	p.Normalize()
	got := p.Intersect("k", 4)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("Intersect = %v", got)
	}
	if p.Intersect("zz", 4) != nil {
		t.Fatal("intersect with unknown key")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	for v := types.VersionID(0); v < 50; v++ {
		for c := uint32(0); c < uint32(v%7)+1; c++ {
			p.ObserveVersionChunk(v, c*3)
		}
	}
	for i := 0; i < 30; i++ {
		k := types.Key([]byte{byte('a' + i%26), byte('0' + i/26)})
		p.AddKeyChunk(k, uint32(i))
		p.AddKeyChunk(k, uint32(i+5))
	}
	p.Normalize()
	if err := p.Save(context.Background(), kv); err != nil {
		t.Fatal(err)
	}
	got, err := Load(context.Background(), kv)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalVersionSpan() != p.TotalVersionSpan() || got.TotalKeySpan() != p.TotalKeySpan() {
		t.Fatalf("spans differ after reload: %d/%d vs %d/%d",
			got.TotalVersionSpan(), got.TotalKeySpan(), p.TotalVersionSpan(), p.TotalKeySpan())
	}
	for v := types.VersionID(0); v < 50; v++ {
		a, b := p.VersionChunks(v), got.VersionChunks(v)
		if len(a) != len(b) {
			t.Fatalf("v%d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("v%d: %v vs %v", v, a, b)
			}
		}
	}
}

// TestEditCopiesOnWrite checks that an edit never writes a list the base
// shares — not even past its length, where an in-place append would land —
// and that Apply installs the edited lists.
func TestEditCopiesOnWrite(t *testing.T) {
	p := New()
	for _, c := range []chunk.ID{3, 5, 7} {
		p.ObserveVersionChunk(1, c)
		p.AddKeyChunk("a", c)
	}
	vl, kl := p.VersionChunks(1), p.KeyChunks("a")
	if cap(vl) == len(vl) || cap(kl) == len(kl) {
		t.Fatal("setup: base lists need spare capacity for the check to bite")
	}
	vBefore := append([]chunk.ID(nil), vl[:cap(vl)]...)
	kBefore := append([]chunk.ID(nil), kl[:cap(kl)]...)

	e := p.Edit()
	e.ObserveVersionChunk(1, 1) // out of order: Normalize must sort
	e.ObserveVersionChunk(2, 4)
	e.ObserveVersionChunk(2, 3)
	e.AddKeyChunk("a", 4)
	e.AddKeyChunk("b", 9)
	e.Normalize()

	if got := vl[:cap(vl)]; !slices.Equal(got, vBefore) {
		t.Fatalf("base version list written: %v, was %v", got, vBefore)
	}
	if got := kl[:cap(kl)]; !slices.Equal(got, kBefore) {
		t.Fatalf("base key list written: %v, was %v", got, kBefore)
	}
	if p.VersionChunks(2) != nil || p.KeyChunks("b") != nil {
		t.Fatal("edit leaked new rows into the base before Apply")
	}
	if got := e.VersionChunks(1); !slices.Equal(got, []chunk.ID{1, 3, 5, 7}) {
		t.Fatalf("edit VersionChunks(1) = %v", got)
	}
	if got := e.VersionChunks(9); got != nil {
		t.Fatalf("edit VersionChunks(9) = %v, want nil", got)
	}

	e.Apply()
	if got := p.VersionChunks(1); !slices.Equal(got, []chunk.ID{1, 3, 5, 7}) {
		t.Fatalf("applied VersionChunks(1) = %v", got)
	}
	if got := p.VersionChunks(2); !slices.Equal(got, []chunk.ID{3, 4}) {
		t.Fatalf("applied VersionChunks(2) = %v", got)
	}
	if got := p.KeyChunks("a"); !slices.Equal(got, []chunk.ID{3, 4, 5, 7}) {
		t.Fatalf("applied KeyChunks(a) = %v", got)
	}
	if got := p.KeyChunks("b"); !slices.Equal(got, []chunk.ID{9}) {
		t.Fatalf("applied KeyChunks(b) = %v", got)
	}
	if !slices.Equal(vl, vBefore[:len(vl)]) {
		t.Fatal("Apply rewrote the old list in place")
	}
}

// TestEditSavesOnlyEditedRows checks that an edit persists exactly the
// rows it touched.
func TestEditSavesOnlyEditedRows(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	p.ObserveVersionChunk(1, 0)
	p.ObserveVersionChunk(2, 0)
	p.AddKeyChunk("a", 0)
	p.AddKeyChunk("b", 0)

	e := p.Edit()
	e.ObserveVersionChunk(2, 1)
	e.ObserveVersionChunk(3, 1)
	e.AddKeyChunk("b", 1)
	e.Normalize()
	if err := e.Save(context.Background(), kv); err != nil {
		t.Fatal(err)
	}

	rows := func(table string) map[string][]chunk.ID {
		out := map[string][]chunk.ID{}
		if err := kv.Scan(context.Background(), table, func(k string, v []byte) bool {
			l, _, err := codec.PostingList(v)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = l
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	vRows, kRows := rows(TableVersionIndex), rows(TableKeyIndex)
	if len(vRows) != 2 || !slices.Equal(vRows["v00000002"], []chunk.ID{0, 1}) || !slices.Equal(vRows["v00000003"], []chunk.ID{1}) {
		t.Fatalf("version rows = %v, want exactly v2=[0 1] and v3=[1]", vRows)
	}
	if len(kRows) != 1 || !slices.Equal(kRows["b"], []chunk.ID{0, 1}) {
		t.Fatalf("key rows = %v, want exactly b=[0 1]", kRows)
	}
}
