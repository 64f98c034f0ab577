package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// opSummary is one op kind's latency distribution in a pass.
type opSummary struct {
	N         int     `json:"n"`
	P50ms     float64 `json:"p50_ms"`
	TailLevel float64 `json:"tail_percentile"`
	TailMS    float64 `json:"tail_ms"`
	// Deciles (p10..p90) show the distribution's shape; a bimodal one
	// makes p50 jump between its modes.
	Deciles []float64 `json:"deciles_ms"`
}

// summarize reports each op kind's median and its tail at levels[kind].
// Levels come from the planned op counts, so every run of a workload
// reports the same percentile; a kind without a level, or with too few
// samples for it, falls back to what its own count supports.
func summarize(samples []sample, levels map[opKind]float64) map[string]opSummary {
	lat := map[opKind][]float64{}
	for _, s := range samples {
		if s.err == nil {
			lat[s.kind] = append(lat[s.kind], ms(s.lat))
		}
	}
	out := map[string]opSummary{}
	for k, xs := range lat {
		sort.Float64s(xs)
		level, ok := levels[k]
		if !ok || level > tailLevel(len(xs)) {
			level = tailLevel(len(xs))
		}
		sum := opSummary{N: len(xs), P50ms: percentile(xs, 50), TailLevel: level, TailMS: percentile(xs, level)}
		for p := 10.0; p < 100; p += 10 {
			sum.Deciles = append(sum.Deciles, percentile(xs, p))
		}
		out[k.String()] = sum
	}
	return out
}

// layerRow is the per-op attribution of the traced pass: the client span
// split into HTTP (client span minus handler span), core (handler span
// minus the union of the request's node calls) and node wait (that union).
// All are means over the op kind's requests, so the parts add up to the
// client span.
type layerRow struct {
	N              int     `json:"n"`
	ClientMS       float64 `json:"client_ms"`
	HTTPMS         float64 `json:"http_self_ms"`
	CoreMS         float64 `json:"core_self_ms"`
	NodeWaitMS     float64 `json:"node_wait_ms"`
	RespBytesPerRc float64 `json:"resp_bytes_per_record"`
	Chunks         float64 `json:"chunks"`
	WastedFrac     float64 `json:"wasted_frac"`
	SimMS          float64 `json:"sim_elapsed_ms"`
	FlushN         int     `json:"flushes"`
	FlushCoreMS    float64 `json:"flush_core_self_ms"` // summed over flushing commits
	CoreSumMS      float64 `json:"-"`                  // summed core self time
}

// residual is how far the parts miss the client span, as a share of it.
func (r layerRow) residual() float64 {
	if r.ClientMS == 0 {
		return 0
	}
	d := r.ClientMS - (r.HTTPMS + r.CoreMS + r.NodeWaitMS)
	if d < 0 {
		d = -d
	}
	return d / r.ClientMS
}

// attribution is what the traced pass's spans say about each layer.
type attribution struct {
	rows        map[opKind]*layerRow
	nodeCalls   int
	nodeBusy    time.Duration // summed node-call durations
	nodeBytes   int64
	readBytes   int64 // values returned by node reads
	engineCalls int
	engineBusy  time.Duration
	unmatched   int // client spans without a handler span
}

func attribute(samples []sample, spans []span) *attribution {
	a := &attribution{rows: map[opKind]*layerRow{}}
	handlers := map[uint64]span{}
	nodes := map[uint64][]interval{}
	for _, s := range spans {
		switch s.where {
		case bHandler:
			handlers[s.req] = s
		case bNode:
			a.nodeCalls++
			a.nodeBusy += s.end.Sub(s.start)
			a.nodeBytes += s.bytes
			if s.name == "get" || s.name == "multiget" || s.name == "scan" {
				a.readBytes += s.bytes
			}
			if s.req != 0 {
				nodes[s.req] = append(nodes[s.req], interval{s.start, s.end})
			}
		case bEngine:
			a.engineCalls++
			a.engineBusy += s.end.Sub(s.start)
		}
	}
	for _, s := range samples {
		if s.req == 0 || s.err != nil {
			continue
		}
		h, ok := handlers[s.req]
		if !ok {
			a.unmatched++
			continue
		}
		row := a.rows[s.kind]
		if row == nil {
			row = &layerRow{}
			a.rows[s.kind] = row
		}
		client := ms(s.lat)
		handler := ms(h.end.Sub(h.start))
		wait := ms(unionWithin(nodes[s.req], h.start, h.end))
		row.N++
		row.ClientMS += client
		row.HTTPMS += client - handler
		row.CoreMS += handler - wait
		row.NodeWaitMS += wait
		if s.records > 0 {
			row.RespBytesPerRc += float64(h.bytes) / float64(s.records)
		}
		row.Chunks += float64(s.stats.Span)
		row.WastedFrac += float64(s.stats.WastedChunks)
		row.SimMS += s.stats.SimElapsedMS
		if s.flushed {
			row.FlushN++
			row.FlushCoreMS += handler - wait
		}
	}
	for _, row := range a.rows {
		n := float64(row.N)
		row.CoreSumMS = row.CoreMS
		if row.Chunks > 0 {
			row.WastedFrac /= row.Chunks
		}
		row.ClientMS /= n
		row.HTTPMS /= n
		row.CoreMS /= n
		row.NodeWaitMS /= n
		row.RespBytesPerRc /= n
		row.Chunks /= n
		row.SimMS /= n
	}
	return a
}

// writeTable prints the attribution table: per op kind, the mean client
// span against the sum of its parts.
func (a *attribution) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%-8s %7s %10s %9s %9s %10s %10s %8s\n", "op", "n", "client_ms", "http_ms", "core_ms", "nodewait_ms", "sum_ms", "resid")
	for k := opKind(0); k < numOpKinds; k++ {
		r, ok := a.rows[k]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-8s %7d %10.3f %9.3f %9.3f %10.3f %10.3f %7.2f%%\n", k, r.N, r.ClientMS, r.HTTPMS,
			r.CoreMS, r.NodeWaitMS, r.HTTPMS+r.CoreMS+r.NodeWaitMS, 100*r.residual())
	}
}
