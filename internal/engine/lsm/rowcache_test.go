package lsm

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestRowCacheCoherence drives the exact sequences that would expose a
// stale row cache: read-then-overwrite-then-read, read-then-delete,
// compaction between reads, and Reset. A tiny memtable keeps data flowing
// through SSTables so cache fills come from the full read path, and a tiny
// row-cache budget exercises eviction.
func TestRowCacheCoherence(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 1 << 10, RowCacheBytes: 1 << 10})
	defer b.Close()

	get := func(key string) (string, bool) {
		t.Helper()
		v, ok, err := b.Get(ctx, "t", key)
		if err != nil {
			t.Fatal(err)
		}
		return string(v), ok
	}

	// Fill enough keys that the cache budget evicts, each read twice so the
	// second Get is served by the row cache.
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := b.Put(ctx, "t", k, []byte(k+" v0")); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%02d", i)
			if v, ok := get(k); !ok || v != k+" v0" {
				t.Fatalf("pass %d: %s = %q (ok=%v)", pass, k, v, ok)
			}
		}
	}

	// Overwrite a cached key: the very next read must see the new value.
	if err := b.Put(ctx, "t", "k00", []byte("k00 v1")); err != nil {
		t.Fatal(err)
	}
	if v, _ := get("k00"); v != "k00 v1" {
		t.Fatalf("after overwrite: %q", v)
	}

	// Compaction moves every row into a single table; cached entries stay
	// valid because logical content is unchanged.
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := get("k00"); v != "k00 v1" {
		t.Fatalf("after compact: %q", v)
	}

	// Delete a cached key: the tombstone must win over the cache.
	if v, ok := get("k01"); !ok || v != "k01 v0" { // ensure it is cached
		t.Fatalf("precondition: %q ok=%v", v, ok)
	}
	if err := b.Delete(ctx, "t", "k01"); err != nil {
		t.Fatal(err)
	}
	if v, ok := get("k01"); ok {
		t.Fatalf("after delete: got %q, want miss", v)
	}

	// Reset wipes the cache with the store.
	if err := b.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok := get("k02"); ok {
		t.Fatalf("after reset: got %q, want miss", v)
	}
}

// TestRowCacheConcurrent hammers one hot key set with parallel readers and
// a writer; under -race this proves the fill/invalidate protocol and under
// any mode it proves readers never observe a torn or stale-beyond-reorder
// value (every observed value must be one the writer actually wrote).
func TestRowCacheConcurrent(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 2 << 10})
	defer b.Close()

	const keys = 8
	for i := 0; i < keys; i++ {
		if err := b.Put(ctx, "t", fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("h%d rev 0", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("h%d", i%keys)
				v, ok, err := b.Get(ctx, "t", k)
				if err != nil || !ok {
					t.Errorf("get %s: ok=%v err=%v", k, ok, err)
					return
				}
				var kk string
				var rev int
				if _, err := fmt.Sscanf(string(v), "%s rev %d", &kk, &rev); err != nil || kk != k {
					t.Errorf("get %s: torn value %q", k, v)
					return
				}
			}
		}()
	}
	for rev := 1; rev <= 200; rev++ {
		for i := 0; i < keys; i++ {
			if err := b.Put(ctx, "t", fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("h%d rev %d", i, rev))); err != nil {
				t.Fatal(err)
			}
		}
		if rev%50 == 0 {
			if _, err := b.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestGetPrefixSkipsRowCache: prefix reads (the replication layer's header
// reads on non-serving replicas) leave the row cache unfilled, so they
// cannot evict the rows whole reads keep hot; they are still answered from
// it on a hit.
func TestGetPrefixSkipsRowCache(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{})
	defer b.Close()
	// "sst" is flushed into an SSTable; "mem" stays in the memtable.
	if err := b.Put(ctx, "t", "sst", []byte("sst payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, "t", "mem", []byte("mem payload")); err != nil {
		t.Fatal(err)
	}
	cached := func(k string) bool {
		_, ok := b.rows.get(ikey("t", k), -1)
		return ok
	}
	for _, k := range []string{"mem", "sst"} {
		if v, ok, err := b.GetPrefix(ctx, "t", k, 3); err != nil || !ok || string(v) != k[:3] {
			t.Fatalf("GetPrefix(%s) = %q, %v, %v", k, v, ok, err)
		}
		if cached(k) {
			t.Fatalf("GetPrefix filled the row cache for %s", k)
		}
	}
	if _, _, err := b.Get(ctx, "t", "sst"); err != nil {
		t.Fatal(err)
	}
	if !cached("sst") {
		t.Fatal("whole Get did not fill the row cache")
	}
	if v, ok, err := b.GetPrefix(ctx, "t", "sst", 5); err != nil || !ok || string(v) != "sst p" {
		t.Fatalf("GetPrefix on a row-cache hit = %q, %v, %v", v, ok, err)
	}
}
