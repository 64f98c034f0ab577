package main

import (
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: with 1..1000 that is p99 = 990, leaving 991..1000 above it.
func TestTailPercentileSelection(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	level := tailLevel(len(xs))
	got := percentile(xs, level)
	if level != 99 || got != 990 {
		t.Fatalf("tail = p%v %v, want p99 990", level, got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
	// One sample fewer and p99 would rest on nine: drop to p95.
	if level := tailLevel(999); percentile(xs[:999], level) != 950 {
		t.Fatalf("999 samples: tail p%v = %v, want p95 950", level, percentile(xs[:999], level))
	}
	if got := percentile(xs, 50); got != 500 {
		t.Fatalf("p50 = %v, want 500", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// Replica calls of one request run in parallel; their overlap must count
// once, and calls poking out of the handler span are clipped to it.
func TestUnionWithinOverlappingReplicaCalls(t *testing.T) {
	ivs := []interval{
		{at(2), at(8)},   // replica 1
		{at(0), at(10)},  // replica 0, covers replica 1
		{at(5), at(15)},  // replica 2, overlaps both
		{at(20), at(25)}, // a second fetch round, cut by the span end
		{at(30), at(40)}, // after the span: ignored
	}
	got := unionWithin(ivs, at(1), at(22))
	if want := 16 * time.Millisecond; got != want { // [1,15) + [20,22)
		t.Fatalf("union = %v, want %v", got, want)
	}
	if got := unionWithin(nil, at(0), at(5)); got != 0 {
		t.Fatalf("empty union = %v", got)
	}
}

// attribute splits each client span into http, core and node wait; the
// parts must add up to the client span even with parallel replica calls.
func TestAttributeAddsUp(t *testing.T) {
	spans := []span{
		{id: 2, parent: 1, req: 1, where: bHandler, start: at(1), end: at(19), bytes: 900},
		{parent: 2, req: 1, where: bNode, name: "multiget", start: at(3), end: at(9), bytes: 300},
		{parent: 2, req: 1, where: bNode, name: "multiget", start: at(4), end: at(11), bytes: 300},
		{parent: 2, req: 1, where: bNode, name: "multiget", start: at(4), end: at(7), bytes: 300},
		{where: bEngine, name: "get", start: at(4), end: at(5)},
	}
	samples := []sample{{kind: opRange, req: 1, lat: 20 * time.Millisecond, records: 3}}
	a := attribute(samples, spans)
	r := a.rows[opRange]
	if r == nil || r.N != 1 {
		t.Fatalf("rows = %+v", a.rows)
	}
	if r.HTTPMS != 2 || r.CoreMS != 10 || r.NodeWaitMS != 8 {
		t.Fatalf("http %v core %v wait %v, want 2 10 8", r.HTTPMS, r.CoreMS, r.NodeWaitMS)
	}
	if r.residual() != 0 {
		t.Fatalf("residual %v", r.residual())
	}
	if r.RespBytesPerRc != 300 || a.nodeCalls != 3 || a.readBytes != 900 || a.engineCalls != 1 {
		t.Fatalf("bytes/record %v, node calls %d, read bytes %d, engine calls %d", r.RespBytesPerRc, a.nodeCalls, a.readBytes, a.engineCalls)
	}
	if a.nodeBusy != 16*time.Millisecond {
		t.Fatalf("node busy %v, want the sum 16ms", a.nodeBusy)
	}
}
