package main

import (
	"bytes"
	"math/rand"
	"testing"

	"rstore/internal/types"
)

func records(n int) ([]types.Record, digest) {
	var want digest
	out := make([]types.Record, n)
	for i := range out {
		out[i] = types.Record{
			CK:    types.CompositeKey{Key: types.Key(string(rune('a' + i))), Version: types.VersionID(i % 3)},
			Value: bytes.Repeat([]byte{byte(i)}, 64),
		}
		want.add(hashRecord(out[i]))
	}
	return out, want
}

func TestVerifyAcceptsAnyOrder(t *testing.T) {
	recs, want := records(20)
	rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if err := verify(recs, want); err != nil {
		t.Fatal(err)
	}
}

// Each way one record can go wrong must change the digest.
func TestVerifyCatchesOneCorruptedRecord(t *testing.T) {
	for name, corrupt := range map[string]func([]types.Record) []types.Record{
		"value byte": func(r []types.Record) []types.Record {
			r[7].Value = append([]byte(nil), r[7].Value...)
			r[7].Value[10] ^= 1
			return r
		},
		"origin version": func(r []types.Record) []types.Record { r[7].CK.Version++; return r },
		"key":            func(r []types.Record) []types.Record { r[7].CK.Key += "x"; return r },
		"missing":        func(r []types.Record) []types.Record { return r[1:] },
		"duplicated":     func(r []types.Record) []types.Record { return append(r, r[3]) },
		"replaced":       func(r []types.Record) []types.Record { r[7] = r[8]; return r },
	} {
		recs, want := records(20)
		if err := verify(corrupt(recs), want); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// The same seed must give a byte-identical dataset and op list; another
// seed must not.
func TestDeterministicPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full dataset three times")
	}
	a, err := generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.digest == c.digest {
		t.Fatalf("dataset digests %x %x %x", a.digest, b.digest, c.digest)
	}
	for name, def := range workloads {
		_, da := def.plan(a, rand.New(rand.NewSource(7)), 7, 300)
		_, db := def.plan(b, rand.New(rand.NewSource(7)), 7, 300)
		_, dc := def.plan(c, rand.New(rand.NewSource(8)), 8, 300)
		if !bytes.Equal(da, db) || bytes.Equal(da, dc) {
			t.Errorf("%s: op-list digests %x %x %x", name, da, db, dc)
		}
	}
}
