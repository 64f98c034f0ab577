package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
)

// RunMixed is the YCSB-style companion to readheavy: the lsm engine (same
// write buffer as readheavy) under a zipfian workload that interleaves
// point gets with overwrites at a configurable read ratio
// (Options.ReadRatio, default 95% reads — YCSB B). Reads and writes are
// timed in one stream, the way a serving tier actually sees them, with
// separately sampled read and write latencies yielding p50/p95/p99 per
// class. Like readheavy, the substrate override is ignored: the experiment
// measures the engine's own serving path.
func RunMixed(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	nKeys := scaled(250000, opts.RecordFrac, 500)
	valSize := scaled(2048, opts.SizeFrac, 64)
	ops := 10 * nKeys
	ratio := opts.ReadRatio
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "rstore-bench-mixed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID:        "mixed",
		Title:     fmt.Sprintf("zipfian mixed workload: %d keys x %dB, %d ops at %.0f%% reads", nKeys, valSize, ops, ratio*100),
		PaperNote: "extension beyond the paper: durable-engine serving path under a YCSB-style read/write mix",
		Headers:   []string{"engine", "load", "ops/s", "r-p50", "r-p95", "r-p99", "w-p50", "w-p95", "w-p99", "disk"},
		Metrics:   map[string]float64{"read_ratio": ratio},
	}

	be, err := lsm.Open(dir, lsm.Options{MemtableBytes: 256 << 10})
	if err != nil {
		return nil, fmt.Errorf("bench mixed: open lsm: %w", err)
	}
	res, err := runMixedOn(ctx, be, nKeys, valSize, ops, ratio, opts.Seed)
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("bench mixed: lsm: %w", err)
	}
	opsPerSec := float64(ops) / res.run.Seconds()
	rp50, rp95, rp99 := pctl(res.readLat, 0.50), pctl(res.readLat, 0.95), pctl(res.readLat, 0.99)
	wp50, wp95, wp99 := pctl(res.writeLat, 0.50), pctl(res.writeLat, 0.95), pctl(res.writeLat, 0.99)
	t.AddRow("lsm", secs(res.load.Seconds()), fmt.Sprintf("%.0f", opsPerSec),
		us(rp50), us(rp95), us(rp99), us(wp50), us(wp95), us(wp99), mb(res.disk))
	t.Metrics["lsm_ops_per_sec"] = opsPerSec
	t.Metrics["lsm_read_p50_us"] = usF(rp50)
	t.Metrics["lsm_read_p95_us"] = usF(rp95)
	t.Metrics["lsm_read_p99_us"] = usF(rp99)
	t.Metrics["lsm_write_p50_us"] = usF(wp50)
	t.Metrics["lsm_write_p95_us"] = usF(wp95)
	t.Metrics["lsm_write_p99_us"] = usF(wp99)
	t.Metrics["lsm_load_sec"] = res.load.Seconds()
	t.Metrics["lsm_disk_bytes"] = float64(res.disk)
	return []*Table{t}, nil
}

// mixedResult is the engine's run of the mixed workload.
type mixedResult struct {
	load     time.Duration
	run      time.Duration
	readLat  []time.Duration // sampled read latencies, sorted ascending
	writeLat []time.Duration // sampled write latencies, sorted ascending
	disk     int64
}

// runMixedOn drives the workload against one backend. The RNG is seeded
// from seed, so every run sees byte-identical key, access, and
// read/write-decision sequences.
func runMixedOn(ctx context.Context, be engine.Backend, nKeys, valSize, ops int, ratio float64, seed int64) (mixedResult, error) {
	var res mixedResult
	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }
	mkval := func(i, rev int) []byte {
		b := make([]byte, valSize)
		copy(b, fmt.Sprintf("doc-%06d rev-%d:", i, rev))
		return b
	}
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(nKeys-1))

	// Bulk load through the fsynced batch path (as in readheavy).
	const batch = 128
	start := time.Now()
	ents := make([]engine.Entry, 0, batch)
	flush := func() error {
		if len(ents) == 0 {
			return nil
		}
		err := be.BatchPut(ctx, "t", ents)
		ents = ents[:0]
		return err
	}
	for i := 0; i < nKeys; i++ {
		ents = append(ents, engine.Entry{Key: key(i), Value: mkval(i, 0)})
		if len(ents) == batch {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	if err := flush(); err != nil {
		return res, err
	}
	res.load = time.Since(start)

	// Precompute the op stream — zipfian targets and the read/write coin —
	// so the timed loop measures the engine, not rng and fmt overhead.
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = key(i)
	}
	access := make([]int32, ops)
	isRead := make([]bool, ops)
	for q := range access {
		access[q] = int32(zipf.Uint64())
		isRead[q] = rnd.Float64() < ratio
	}
	// One shared overwrite buffer per revision: writes pay the engine's
	// copy, not the harness's allocation.
	wval := mkval(0, 1)
	// Warm-up: touch every key once, untimed.
	for _, k := range keys {
		if _, ok, err := be.Get(ctx, "t", k); err != nil || !ok {
			return res, fmt.Errorf("warmup %s: ok=%v err=%w", k, ok, err)
		}
	}

	docPrefix := []byte("doc-")
	const latEvery = 8
	res.readLat = make([]time.Duration, 0, ops/latEvery+1)
	res.writeLat = make([]time.Duration, 0, ops/latEvery+1)
	rstart := time.Now()
	for q := 0; q < ops; q++ {
		k := keys[access[q]]
		sampled := q%latEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		if isRead[q] {
			v, ok, err := be.Get(ctx, "t", k)
			if sampled {
				res.readLat = append(res.readLat, time.Since(t0))
			}
			if err != nil {
				return res, err
			}
			if !ok || len(v) != valSize || !bytes.HasPrefix(v, docPrefix) {
				return res, fmt.Errorf("read %s: ok=%v len=%d", k, ok, len(v))
			}
		} else {
			err := be.Put(ctx, "t", k, wval)
			if sampled {
				res.writeLat = append(res.writeLat, time.Since(t0))
			}
			if err != nil {
				return res, err
			}
		}
	}
	res.run = time.Since(rstart)
	sortDurations(res.readLat)
	sortDurations(res.writeLat)

	if c, ok := be.(engine.Compactor); ok {
		st, err := c.CompactionStats(ctx)
		if err != nil {
			return res, err
		}
		res.disk = st.DiskBytes
	}
	return res, nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}
