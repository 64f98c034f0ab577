package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/engine"
)

// Span boundaries, outermost first. The benchmark records them from its own
// files, around calls into each layer's public functions:
//
//	client  the internal/client call, send until the body is drained
//	handler an http.Handler middleware around server.New(store)
//	node    an engine.Backend decorator around each remote.Client (kvstore side)
//	engine  an engine.Backend decorator around each lsm backend (engined side)
type boundary uint8

const (
	bClient boundary = iota
	bHandler
	bNode
	bEngine
)

var boundaryNames = [...]string{"client", "handler", "node", "engine"}

// span is one recorded interval. req links the client, handler and node
// spans of one request; the request ID does not cross the wire, so engine
// spans carry req 0 and are attributed per workload.
type span struct {
	id, parent, req uint64
	where           boundary
	name            string // op kind (client, handler) or backend call (node, engine)
	start, end      time.Time
	bytes           int64 // values returned by a read, keys+values handed to a write
}

// recorder keeps spans in memory while on; they are written out when the
// run ends. Off, every boundary costs one atomic load.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// add records s, assigning its ID unless the caller reserved one.
func (r *recorder) add(s span) {
	if s.id == 0 {
		s.id = r.nextID.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// reqCtx is what a request's context carries: its ID (the client span's)
// and the span that calls made under it descend from.
type reqCtx struct{ req, parent uint64 }

type reqKey struct{}

func withReq(ctx context.Context, req, parent uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, reqCtx{req, parent})
}

func reqOf(ctx context.Context) reqCtx {
	rc, _ := ctx.Value(reqKey{}).(reqCtx)
	return rc
}

// reqHeader carries the client span's ID to the handler middleware; the
// client package builds its requests from the caller's ctx, so a
// RoundTripper can read the ID there.
const reqHeader = "X-Perfbench-Req"

type reqTransport struct{ base http.RoundTripper }

func (t reqTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rc := reqOf(r.Context()); rc.req != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(rc.req, 10))
	}
	return t.base.RoundTrip(r)
}

// middleware records a handler span per request and puts the request ID
// into r.Context(), where the node decorator finds it again after core and
// kvstore have passed the context down.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		self := r.nextID.Add(1)
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, req.WithContext(withReq(req.Context(), id, self)))
		r.add(span{id: self, parent: id, req: id, where: bHandler, name: req.Pattern, start: start, end: time.Now(), bytes: cw.n})
	})
}

// countingWriter counts response bytes. It keeps the streaming handlers'
// per-record Flush and, through Unwrap, their per-line write deadlines.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedBackend decorates an engine.Backend with span recording. It
// forwards the optional MultiGetter, Compactor, Resetter and HashRanger
// interfaces, so wrapping changes what callers can do with the backend in
// no way. written counts the bytes handed to Put/BatchPut (engine write
// amplification's denominator).
type tracedBackend struct {
	inner   engine.Backend
	rec     *recorder
	where   boundary
	written atomic.Int64
}

var (
	_ engine.MultiGetter = (*tracedBackend)(nil)
	_ engine.Compactor   = (*tracedBackend)(nil)
	_ engine.Resetter    = (*tracedBackend)(nil)
	_ engine.HashRanger  = (*tracedBackend)(nil)
)

// record closes a call's span when recording is on.
func (b *tracedBackend) record(ctx context.Context, name string, start time.Time, bytes int64) {
	if !b.rec.on.Load() {
		return
	}
	rc := reqOf(ctx)
	b.rec.add(span{parent: rc.parent, req: rc.req, where: b.where, name: name, start: start, end: time.Now(), bytes: bytes})
}

func (b *tracedBackend) Put(ctx context.Context, table, key string, value []byte) error {
	start := time.Now()
	err := b.inner.Put(ctx, table, key, value)
	n := int64(len(key) + len(value))
	b.written.Add(n)
	b.record(ctx, "put", start, n)
	return err
}

func (b *tracedBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := b.inner.Get(ctx, table, key)
	b.record(ctx, "get", start, int64(len(v)))
	return v, ok, err
}

func (b *tracedBackend) Delete(ctx context.Context, table, key string) error {
	start := time.Now()
	err := b.inner.Delete(ctx, table, key)
	b.record(ctx, "delete", start, int64(len(key)))
	return err
}

func (b *tracedBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	start := time.Now()
	err := b.inner.BatchPut(ctx, table, entries)
	var n int64
	for _, e := range entries {
		n += int64(len(e.Key) + len(e.Value))
	}
	b.written.Add(n)
	b.record(ctx, "batchput", start, n)
	return err
}

func (b *tracedBackend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	start := time.Now()
	var n int64
	err := b.inner.Scan(ctx, table, func(key string, value []byte) bool {
		n += int64(len(value))
		return fn(key, value)
	})
	b.record(ctx, "scan", start, n)
	return err
}

func (b *tracedBackend) Tables(ctx context.Context) ([]string, error) { return b.inner.Tables(ctx) }

func (b *tracedBackend) BytesStored() int64 { return b.inner.BytesStored() }

func (b *tracedBackend) Close() error { return b.inner.Close() }

// MultiGet forwards to the inner MultiGetter, or resolves key by key
// exactly as kvstore and engined do for backends without one.
func (b *tracedBackend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	start := time.Now()
	var values [][]byte
	var present []bool
	var err error
	if mg, ok := b.inner.(engine.MultiGetter); ok {
		values, present, err = mg.MultiGet(ctx, table, keys)
	} else {
		values, present = make([][]byte, len(keys)), make([]bool, len(keys))
		for i, k := range keys {
			if values[i], present[i], err = b.inner.Get(ctx, table, k); err != nil {
				values, present = nil, nil
				break
			}
		}
	}
	var n int64
	for _, v := range values {
		n += int64(len(v))
	}
	b.record(ctx, "multiget", start, n)
	return values, present, err
}

func (b *tracedBackend) Compact(ctx context.Context) (engine.CompactionStats, error) {
	c, ok := b.inner.(engine.Compactor)
	if !ok {
		return engine.CompactionStats{}, engine.ErrNoCompaction
	}
	return c.Compact(ctx)
}

func (b *tracedBackend) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	c, ok := b.inner.(engine.Compactor)
	if !ok {
		return engine.CompactionStats{}, engine.ErrNoCompaction
	}
	return c.CompactionStats(ctx)
}

func (b *tracedBackend) Reset(ctx context.Context) error {
	r, ok := b.inner.(engine.Resetter)
	if !ok {
		return engine.ErrNoReset
	}
	return r.Reset(ctx)
}

func (b *tracedBackend) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	hr, ok := b.inner.(engine.HashRanger)
	if !ok {
		return engine.TreeDigest{}, engine.ErrNoHashRange
	}
	return hr.HashTree(ctx, table, fanout)
}

func (b *tracedBackend) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	hr, ok := b.inner.(engine.HashRanger)
	if !ok {
		return nil, engine.ErrNoHashRange
	}
	return hr.HashRange(ctx, table, fanout, bucket)
}

// writeSpans dumps spans as tab-separated lines, times in nanoseconds
// since the earliest span started.
func writeSpans(path string, spans []span) error {
	var base time.Time
	for i, s := range spans {
		if i == 0 || s.start.Before(base) {
			base = s.start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tboundary\tname\tstart_ns\tend_ns\tbytes")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req,
			boundaryNames[s.where], s.name, s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds(), s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
