package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/client"
	"rstore/internal/server"
	"rstore/internal/types"
)

// sample is one completed client call.
type sample struct {
	kind    opKind
	req     uint64 // span ID of the client call; 0 when untraced
	lat     time.Duration
	stats   server.StatsJSON // the response's stats trailer (reads)
	records int              // records returned; puts sent, for a commit
	flushed bool             // commit during which PendingVersions dropped (traced only)
	err     error            // call failed or returned a wrong result
}

// passResult is what one timed pass over a workload's ops produced.
type passResult struct {
	samples []sample
	elapsed time.Duration
}

// driver drives a cluster for one pass of count planned ops. A pass that
// is still running after limit stops issuing ops, so a host far slower
// than the one the op counts were sized on cannot run a pass unbounded.
type driver interface {
	run(ctx context.Context, cl *cluster, count int, limit time.Duration) passResult
	// planned is how many ops of kind a pass of count ops makes at least.
	planned(kind opKind, count int) int
}

// begin opens a client span when cl is traced and recording.
func begin(ctx context.Context, cl *cluster) (context.Context, uint64) {
	if cl.rec == nil || !cl.rec.on.Load() {
		return ctx, 0
	}
	id := cl.rec.nextID.Add(1)
	return withReq(ctx, id, id), id
}

func end(cl *cluster, s *sample, start time.Time) {
	s.lat = time.Since(start)
	if s.req != 0 {
		cl.rec.add(span{id: s.req, req: s.req, where: bClient, name: s.kind.String(), start: start, end: start.Add(s.lat)})
	}
}

func drain(cur *client.Cursor, err error) ([]types.Record, server.StatsJSON, error) {
	if err != nil {
		return nil, server.StatsJSON{}, err
	}
	return cur.All()
}

// read issues one planned read and checks its result against the digest
// computed from the corpus. The span ends once the body is drained;
// hashing happens after it.
func read(ctx context.Context, cl *cluster, o op) sample {
	s := sample{kind: o.kind}
	ctx, s.req = begin(ctx, cl)
	ref := strconv.FormatUint(uint64(o.v), 10)
	var recs []types.Record
	var err error
	start := time.Now()
	switch o.kind {
	case opVersion:
		recs, s.stats, err = drain(cl.client.GetVersion(ctx, ref))
	case opRange:
		recs, s.stats, err = drain(cl.client.GetRange(ctx, ref, o.lo, o.hi))
	case opHistory:
		recs, s.stats, err = drain(cl.client.GetHistory(ctx, o.key))
	case opRecord:
		var r types.Record
		r, s.stats, err = cl.client.GetRecord(ctx, ref, o.key)
		recs = []types.Record{r}
	}
	end(cl, &s, start)
	s.records = len(recs)
	if err != nil {
		s.err = fmt.Errorf("%s v%d: %w", o.kind, o.v, err)
		return s
	}
	if err := verify(recs, o.want); err != nil {
		s.err = fmt.Errorf("%s v%d %q [%s,%s): %w", o.kind, o.v, o.key, o.lo, o.hi, err)
	}
	return s
}

// verify compares a result's digest with the expected one.
func verify(recs []types.Record, want digest) error {
	var got digest
	for _, r := range recs {
		got.add(hashRecord(r))
	}
	if got != want {
		return fmt.Errorf("result digest %s, want %s", got, want)
	}
	return nil
}

// readWorkload replays a planned op list with a closed loop of clients:
// each client sends its next op only after the previous one completed.
type readWorkload struct {
	ops     []op
	clients int
}

func (w *readWorkload) planned(kind opKind, count int) int {
	n := 0
	for _, o := range w.ops[:min(count, len(w.ops))] {
		if o.kind == kind {
			n++
		}
	}
	return n
}

func (w *readWorkload) run(ctx context.Context, cl *cluster, count int, limit time.Duration) passResult {
	if count > len(w.ops) {
		count = len(w.ops)
	}
	samples := make([]sample, count)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(limit)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				samples[i] = read(ctx, cl, w.ops[i])
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	// Ops are claimed in order and every claimed op runs, so a pass cut at
	// the deadline completed a prefix of the list.
	return passResult{samples: samples[:done.Load()], elapsed: time.Since(start)}
}
