// Tests for the transport behaviors the conformance suite cannot see:
// unavailability classification, retry/recovery across a node restart,
// connection pooling, and the scan stream's failure handling. Backend
// semantics are covered by the conformance suite in internal/engine.
package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/types"
)

// fastOpts keeps retry latency test-friendly.
func fastOpts() remote.Options {
	return remote.Options{Attempts: 2, Backoff: 5 * time.Millisecond, DialTimeout: time.Second}
}

// freePort reserves an address nothing listens on (and then releases it,
// so a later server can bind it).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialValidatesAddress(t *testing.T) {
	if _, err := remote.Dial("not-an-address", remote.Options{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestDownNodeIsUnavailableNotHardError(t *testing.T) {
	c, err := remote.Dial(freePort(t), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("put to dead node: %v", err)
	}
	if _, _, err := c.Get(context.Background(), "t", "k"); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("get from dead node: %v", err)
	}
	if err := c.Scan(context.Background(), "t", func(string, []byte) bool { return true }); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("scan of dead node: %v", err)
	}
	if _, err := c.Stored(context.Background()); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("stored of dead node: %v", err)
	}
}

func TestBackendErrorIsHardNotUnavailable(t *testing.T) {
	be := memory.New()
	be.Close() // every operation now fails inside the node
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put(context.Background(), "t", "k", []byte("v"))
	if err == nil || errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("node-side failure classified wrong: %v", err)
	}
	if !errors.Is(err, types.ErrClosed) {
		t.Fatalf("closed-backend error did not map to ErrClosed: %v", err)
	}
}

func TestClientSurvivesNodeRestart(t *testing.T) {
	be := memory.New()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	c, err := remote.Dial(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Kill the node: the pooled connection is now dead.
	srv.Close()
	if err := c.Put(context.Background(), "t", "k2", []byte("while down")); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("put while node down: %v", err)
	}

	// Restart on the same address with the same backend: the client must
	// re-dial transparently and see the earlier write.
	srv2, err := engined.Start(addr, be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	v, ok, err := c.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(v) != "before" {
		t.Fatalf("get after restart: %q %v %v", v, ok, err)
	}
}

func TestRetryRedialsWithinOneOperation(t *testing.T) {
	// A server that accepts and immediately drops the first connection:
	// the client's first attempt dies mid-exchange, the retry must succeed
	// against the real server behind it.
	be := memory.New()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	var drops int
	var mu sync.Mutex
	go func() {
		for {
			nc, err := front.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			first := drops == 0
			drops++
			mu.Unlock()
			if first {
				nc.Close() // simulate a connection reset
				continue
			}
			// Proxy everything else straight through.
			bc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				nc.Close()
				return
			}
			go func() { defer nc.Close(); defer bc.Close(); buf := make([]byte, 32<<10); copyConn(nc, bc, buf) }()
			go func() { buf := make([]byte, 32<<10); copyConn(bc, nc, buf) }()
		}
	}()

	c, err := remote.Dial(front.Addr().String(), remote.Options{Attempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("v")); err != nil {
		t.Fatalf("put through flaky front: %v", err)
	}
	v, ok, err := c.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get through flaky front: %q %v %v", v, ok, err)
	}
}

func copyConn(dst net.Conn, src net.Conn, buf []byte) {
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func TestOperationsAfterClientClose(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := c.Put(context.Background(), "t", "k", nil); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
}

func TestConcurrentClientsShareOnePool(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), remote.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if err := c.Put(context.Background(), "t", k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := c.Get(context.Background(), "t", k)
				if err != nil || !ok || string(v) != k {
					t.Errorf("%s: %q %v %v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestScanEarlyStopLeavesClientUsable(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		if err := c.Put(context.Background(), "t", fmt.Sprintf("k%03d", i), []byte(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the stream after a few entries, repeatedly; the client must
	// keep serving requests on fresh connections.
	for round := 0; round < 3; round++ {
		n := 0
		if err := c.Scan(context.Background(), "t", func(string, []byte) bool { n++; return n < 5 }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != 5 {
			t.Fatalf("round %d visited %d", round, n)
		}
		if _, ok, err := c.Get(context.Background(), "t", "k000"); err != nil || !ok {
			t.Fatalf("get after abandoned scan: %v %v", ok, err)
		}
	}
}

func TestBigValuesCrossTheWire(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 8<<20) // bigger than any internal buffer
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := c.BatchPut(context.Background(), "t", []engine.Entry{{Key: "big", Value: big}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(context.Background(), "t", "big")
	if err != nil || !ok || len(v) != len(big) {
		t.Fatalf("big get: %d bytes, %v %v", len(v), ok, err)
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("big value corrupted at byte %d", i)
		}
	}
}

// TestCompactOverTheWire: an lsm-backed daemon compacts on client demand,
// the stats round-trip, and every value survives the rewrite.
func TestCompactOverTheWire(t *testing.T) {
	be, err := lsm.Open(t.TempDir(), lsm.Options{MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Overwrite-heavy history: every key rewritten five times, a few deleted.
	for rev := 0; rev < 5; rev++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("k%03d", i)
			v := fmt.Sprintf("%s rev-%d %s", k, rev, strings.Repeat("x", 64))
			if err := c.Put(context.Background(), "t", k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if err := c.Delete(context.Background(), "t", fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	before, err := c.CompactionStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.DiskBytes == 0 || before.LiveRatio() > 0.5 {
		t.Fatalf("workload not dead-heavy enough: %+v", before)
	}
	after, err := c.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.DiskBytes > before.DiskBytes/2 {
		t.Fatalf("remote compact reclaimed too little: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	if got, want := after.CompactedBytes-before.CompactedBytes, before.DiskBytes-after.DiskBytes; got != want {
		t.Fatalf("CompactedBytes grew by %d, want %d", got, want)
	}
	if after.LiveRatio() != 1 {
		t.Fatalf("compacted store not all live: %+v", after)
	}
	local, err := be.CompactionStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after != local {
		t.Fatalf("stats over the wire %+v, daemon's backend reports %+v", after, local)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok, err := c.Get(context.Background(), "t", k)
		if err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			if ok {
				t.Fatalf("deleted %s resurrected as %q", k, v)
			}
			continue
		}
		if want := fmt.Sprintf("%s rev-4 %s", k, strings.Repeat("x", 64)); !ok || string(v) != want {
			t.Fatalf("%s = %q (ok=%v) after remote compact", k, v, ok)
		}
	}
}

// TestCompactUnsupportedBackend: a daemon whose backend cannot compact must
// report engine.ErrNoCompaction — a hard, matchable error, not
// unavailability (retrying a different replica would not help).
func TestCompactUnsupportedBackend(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Compact(context.Background()); !errors.Is(err, engine.ErrNoCompaction) {
		t.Fatalf("Compact on memory-backed node: %v, want ErrNoCompaction", err)
	}
	if _, err := c.CompactionStats(context.Background()); !errors.Is(err, engine.ErrNoCompaction) {
		t.Fatalf("CompactionStats on memory-backed node: %v, want ErrNoCompaction", err)
	}
	if errors.Is(engine.ErrNoCompaction, engine.ErrUnavailable) {
		t.Fatal("ErrNoCompaction must not be unavailability")
	}
}
