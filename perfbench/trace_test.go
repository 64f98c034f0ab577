package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
)

// The decorator must leave a backend's capabilities as they were: the
// optional interfaces answer like the inner backend's, or with its
// ErrNo* sentinel when the inner backend has none.
func TestTracedBackendForwards(t *testing.T) {
	ctx := context.Background()
	rec := &recorder{}
	be, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := &tracedBackend{inner: be, rec: rec, where: bEngine}
	defer tb.Close()
	if err := tb.BatchPut(ctx, "t", []engine.Entry{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("22")}}); err != nil {
		t.Fatal(err)
	}
	if st, err := tb.CompactionStats(ctx); err != nil || st.DiskBytes == 0 {
		t.Fatalf("CompactionStats = %+v, %v", st, err)
	}
	if _, err := tb.HashTree(ctx, "t", engine.DefaultHashFanout); err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	values, present, err := tb.MultiGet(ctx, "t", []string{"b", "x", "a"})
	if err != nil || string(values[0]) != "22" || present[1] || string(values[2]) != "1" {
		t.Fatalf("MultiGet = %q %v %v", values, present, err)
	}
	if err := tb.Reset(ctx); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if tb.written.Load() != 5 {
		t.Fatalf("written = %d, want 5", tb.written.Load())
	}
	if n := len(rec.take()); n != 0 {
		t.Fatalf("%d spans recorded while off", n)
	}

	mem := &tracedBackend{inner: memory.New(), rec: rec, where: bNode}
	if _, err := mem.Compact(ctx); !errors.Is(err, engine.ErrNoCompaction) {
		t.Fatalf("memory Compact: %v", err)
	}
	rec.on.Store(true)
	if _, _, err := mem.Get(withReq(ctx, 7, 9), "t", "k"); err != nil {
		t.Fatal(err)
	}
	spans := rec.take()
	if len(spans) != 1 || spans[0].req != 7 || spans[0].parent != 9 || spans[0].name != "get" || spans[0].where != bNode {
		t.Fatalf("spans = %+v", spans)
	}
}

// The client's request ID must reach the handler through the header and
// the node calls through r.Context(); streaming still flushes.
func TestMiddlewarePropagatesRequest(t *testing.T) {
	rec := &recorder{}
	rec.on.Store(true)
	var seen reqCtx
	h := rec.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = reqOf(r.Context())
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer lost http.Flusher")
		}
		io.WriteString(w, "hello")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := &http.Client{Transport: reqTransport{base: http.DefaultTransport}}
	req, err := http.NewRequestWithContext(withReq(context.Background(), 42, 42), http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	spans := rec.take()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	h0 := spans[0]
	if h0.where != bHandler || h0.req != 42 || h0.parent != 42 || h0.bytes != 5 {
		t.Fatalf("handler span = %+v", h0)
	}
	if seen.req != 42 || seen.parent != h0.id {
		t.Fatalf("handler ctx = %+v, want req 42 parent %d", seen, h0.id)
	}
	if got := req.Header.Get(reqHeader); got != "" {
		t.Fatalf("caller's request mutated: header %q", got)
	}
}
