// Command perfbench is the repository's end-to-end benchmark. In one
// process it runs three in-process engined daemons serving lsm backends
// over loopback TCP, a kvstore cluster at rf=3 over them, a core store, an
// httptest server over server.New(store), and a closed-loop load generator
// driving that server through internal/client. It bulk-loads a dataset
// generated from the seed, replays a planned op list, verifies every result
// against digests computed from the corpus, and prints one JSON line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced pass. --trace 1
// runs an untraced and a traced pass over the same ops and reports the
// per-layer metrics; the attribution table and the span dump are written
// under .bench_build/perfbench/results. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workDir is where runs keep their data and results, relative to the
// repository root the benchmark runs from.
const workDir = ".bench_build/perfbench"

// setups is how many times an untraced run sets the system up; setup_s is
// their median.
const setups = 3

// workloadDef fixes a workload's op mix and how many ops a pass makes:
// rate is the nominal throughput on a 2-vCPU host, so a pass of
// seconds*rate ops takes about --seconds there. Replaying a fixed count
// rather than stopping on a timer means every run with one seed times
// exactly the same ops.
type workloadDef struct {
	slots [2]opKind // what the op1 and op2 metrics measure
	rate  float64
	plan  func(ds *dataset, rng *rand.Rand, seed int64, count int) (driver, []byte)
}

var workloads = map[string]workloadDef{
	"scan": {slots: [2]opKind{opVersion, opRange}, rate: 32, plan: func(ds *dataset, rng *rand.Rand, _ int64, n int) (driver, []byte) {
		ops := planScan(ds, rng, n)
		return &readWorkload{ops: ops, clients: 2}, opsDigest(ops)
	}},
	"lookup": {slots: [2]opKind{opRecord, opHistory}, rate: 800, plan: func(ds *dataset, rng *rand.Rand, _ int64, n int) (driver, []byte) {
		ops := planLookup(ds, rng, n)
		return &readWorkload{ops: ops, clients: 2}, opsDigest(ops)
	}},
	"ingest": {slots: [2]opKind{opCommit, opRecord}, rate: 28, plan: func(ds *dataset, rng *rand.Rand, seed int64, n int) (driver, []byte) {
		w := planIngest(ds, rng, seed, n, 4096)
		h := fnv.New64a()
		for _, c := range w.commits {
			for _, k := range c {
				fmt.Fprintf(h, "%d,", k)
			}
			h.Write([]byte{';'})
		}
		for _, k := range w.reads {
			fmt.Fprintf(h, "%d,", k)
		}
		return w, h.Sum(nil)
	}},
}

func opsDigest(ops []op) []byte {
	h := fnv.New64a()
	for _, o := range ops {
		o.encode(h)
	}
	return h.Sum(nil)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: scan, lookup or ingest")
		seed    = flag.Int64("seed", 1, "dataset and op-list seed (>= 0)")
		seconds = flag.Int("seconds", 15, "nominal length of the measured pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload scan|lookup|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, def, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runtimeCounters samples the Go runtime's allocation and CPU counters.
type runtimeCounters struct{ allocs, allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return runtimeCounters{f(0), f(1), f(2), f(3)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - o.allocs, c.allocBytes - o.allocBytes, c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU}
}

// ioWriteBytes is the process's write_bytes from /proc/self/io: bytes it
// caused to be sent to storage. ok is false where the file is unavailable.
func ioWriteBytes() (int64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &n); err == nil {
			return n, true
		}
	}
	return 0, false
}

func run(name string, def workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	ctx := context.Background()
	if err := os.MkdirAll(filepath.Join(workDir, "results"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	ds, err := generate(seed)
	if err != nil {
		return nil, err
	}
	count := int(float64(seconds) * def.rate)
	wl, planDigest := def.plan(ds, rand.New(rand.NewSource(seed)), seed, count)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: dataset %016x (%d records, %d versions, %.1f MB unique, generated in %.2fs), op list %x (%d ops)\n",
		name, seed, ds.digest, ds.c.NumRecords(), ds.c.NumVersions(), float64(ds.userBytes)/1e6, ds.genTime.Seconds(), planDigest, count)

	var rec *recorder
	n := setups
	if traced {
		rec, n = &recorder{}, 1
	}
	var cl *cluster
	var setupS []float64
	for i := 0; i < n; i++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Join(runDir, fmt.Sprint(i-1))); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(runDir, fmt.Sprint(i))
		start := time.Now()
		if cl, err = openCluster(ctx, dir, ds, rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer cl.close()

	var all []sample
	// Untimed warm-up: caches fill and lazy set-up finishes first.
	limit := 3 * time.Duration(seconds) * time.Second
	warm := wl.run(ctx, cl, max(count/10, 1), limit/10)
	all = append(all, warm.samples...)

	measured := count
	if traced {
		measured = count / 2 // two passes in a traced run keep it as long as an untraced one
	}
	levels := map[opKind]float64{}
	for _, k := range def.slots {
		levels[k] = tailLevel(wl.planned(k, measured))
	}
	rt0 := readRuntime()
	plain := wl.run(ctx, cl, measured, limit)
	rt1 := readRuntime()
	all = append(all, plain.samples...)

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	report := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds,
		"dataset_digest": fmt.Sprintf("%016x", ds.digest), "oplist_digest": fmt.Sprintf("%x", planDigest),
		"dataset_gen_s": ds.genTime.Seconds(), "setup_s": setupS,
		"untraced": summarize(plain.samples, levels),
	}
	attributionOK := true
	if traced {
		tracedPass, ok, err := layerMetrics(ctx, cl, wl, def, name, measured, limit, plain, rt1.sub(rt0), put, report)
		if err != nil {
			return nil, err
		}
		all = append(all, tracedPass.samples...)
		report["traced"] = summarize(tracedPass.samples, levels)
		attributionOK = ok
		put("dataset.gen_s", ds.genTime.Seconds(), "s")
	} else {
		sum := summarize(plain.samples, levels)
		put("setup_s", median(setupS), "s")
		for i, k := range def.slots {
			slot := fmt.Sprintf("op%d", i+1)
			s := sum[k.String()]
			put(slot+".p50_ms", s.P50ms, "ms")
			put(slot+".tail_ms", s.TailMS, "ms")
		}
		put("throughput_ops_s", float64(len(plain.samples))/plain.elapsed.Seconds(), "1/s")
	}

	res.Attempted = len(all)
	for _, s := range all {
		if s.err != nil {
			if res.Failed < 5 {
				fmt.Fprintln(os.Stderr, "perfbench: failed:", s.err)
			}
			res.Failed++
		}
	}
	if traced {
		put("error_rate", float64(res.Failed)/float64(res.Attempted), "frac")
	} else {
		// Background compaction leaves a varying amount of shadowed data
		// on disk when the pass ends; a full compaction first makes the
		// footprint a property of the data and its layout, not of timing.
		if _, err := cl.kv.Compact(ctx); err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
		kvEnd := cl.kv.Stats(ctx)
		user := ds.userBytes
		for _, s := range all {
			if s.kind == opCommit && s.err == nil {
				user += int64(s.records) * recordSize
			}
		}
		put("storage.bytes_per_user_byte", float64(kvEnd.DiskBytes)/float64(user), "ratio")
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		put("mem.heap_live_mb", float64(m.HeapAlloc)/(1<<20), "MB")
	}
	res.Correct = res.Failed == 0 && attributionOK
	report["result"] = res
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	suffix := ".json"
	if traced {
		suffix = ".trace.json"
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(workDir, "results", name+suffix), b, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics runs the traced pass over the same ops as the untraced one
// and reports the per-layer metrics from its spans and counter deltas.
// The runtime counters come from the untraced pass (rt), which tracing
// would otherwise inflate. ok is false when the attribution's parts miss a
// client span by more than 5%.
func layerMetrics(ctx context.Context, cl *cluster, wl driver, def workloadDef, name string, count int, limit time.Duration,
	plain passResult, rt runtimeCounters, put func(string, float64, string), report map[string]any) (passResult, bool, error) {
	io0, ioOK := ioWriteBytes()
	w0 := cl.engineWritten()
	kv0 := cl.kv.Stats(ctx)
	cl.rec.on.Store(true)
	pass := wl.run(ctx, cl, count, limit)
	cl.rec.on.Store(false)
	kv1 := cl.kv.Stats(ctx)
	io1, _ := ioWriteBytes()
	written := cl.engineWritten() - w0
	spans := cl.rec.take()

	a := attribute(pass.samples, spans)
	var table strings.Builder
	a.writeTable(&table)
	fmt.Fprint(os.Stderr, table.String())
	if err := writeSpans(filepath.Join(workDir, "results", name+".spans.tsv"), spans); err != nil {
		return pass, false, err
	}

	ok := true
	for i, k := range def.slots {
		slot := fmt.Sprintf("op%d", i+1)
		r := a.rows[k]
		if r == nil {
			r = &layerRow{}
		}
		put("http."+slot+".self_ms", r.HTTPMS, "ms")
		put("http."+slot+".resp_bytes_per_record", r.RespBytesPerRc, "B")
		put("core."+slot+".self_ms", r.CoreMS, "ms")
		put("core."+slot+".chunks", r.Chunks, "count")
		put("core."+slot+".wasted_frac", r.WastedFrac, "frac")
		put("kvstore."+slot+".node_wait_ms", r.NodeWaitMS, "ms")
		if r.N == 0 || r.residual() > 0.05 {
			ok = false
		}
	}
	var coreTotal, flushCore, simMS, waitMS float64
	flushes, commits := 0, 0
	for k, r := range a.rows {
		coreTotal += r.CoreSumMS
		flushCore += r.FlushCoreMS
		flushes += r.FlushN
		if k == opCommit {
			commits = r.N
		}
		if r.SimMS > 0 { // reads: their trailers carry the cost model's clock
			simMS += r.SimMS * float64(r.N)
			waitMS += r.NodeWaitMS * float64(r.N)
		}
	}
	ops := float64(len(pass.samples))
	put("core.flush.count", float64(flushes), "count")
	put("core.flush.self_share", ratio(flushCore, coreTotal), "frac")
	put("kvstore.requests_per_op", float64(kv1.Requests-kv0.Requests)/ops, "count")
	put("kvstore.bytes_put_per_commit", ratio(float64(kv1.BytesPut-kv0.BytesPut), float64(commits)), "B")
	put("kvstore.read_amp", ratio(float64(a.readBytes), float64(kv1.BytesRead-kv0.BytesRead)), "ratio")
	put("kvstore.sim_over_measured", ratio(simMS, waitMS), "ratio")
	put("wire.self_ms_per_op", ms(a.nodeBusy-a.engineBusy)/ops, "ms")
	put("wire.calls_per_op", float64(a.nodeCalls)/ops, "count")
	put("wire.bytes_per_op", float64(a.nodeBytes)/ops, "B")
	put("engine.busy_ms_per_op", ms(a.engineBusy)/ops, "ms")
	put("engine.calls_per_op", float64(a.engineCalls)/ops, "count")
	writeAmp := 0.0
	if ioOK {
		writeAmp = ratio(float64(io1-io0), float64(written))
	}
	put("engine.write_amp", writeAmp, "ratio")
	uops := float64(len(plain.samples))
	put("runtime.allocs_per_op", rt.allocs/uops, "count")
	put("runtime.alloc_kb_per_op", rt.allocBytes/1024/uops, "KiB")
	put("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "frac")
	up := uops / plain.elapsed.Seconds()
	tp := ops / pass.elapsed.Seconds()
	put("trace.overhead_frac", 1-tp/up, "frac")

	rows := map[string]*layerRow{}
	for k, r := range a.rows {
		rows[k.String()] = r
	}
	report["attribution"] = rows
	report["attribution_table"] = table.String()
	report["untraced_ops_s"], report["traced_ops_s"] = up, tp
	report["unmatched_client_spans"] = a.unmatched
	return pass, ok, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
