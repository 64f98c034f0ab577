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
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/kvstore"
)

// RunReadHeavy measures the workload the paper's premise implies for the
// storage tier — many overlapping versions served under heavy, skewed read
// traffic — on the lsm engine (bloom-filtered sorted runs behind a block
// cache) in a private directory: bulk load, one zipfian overwrite pass to
// create dead versions, an explicit compaction to steady state, then a
// timed point-get phase whose sampled read latencies yield p50/p95/p99.
// The substrate override is deliberately ignored: the experiment measures
// the engine's own read path.
func RunReadHeavy(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	nKeys := scaled(250000, opts.RecordFrac, 500)
	valSize := scaled(2048, opts.SizeFrac, 64)
	reads := 20 * nKeys
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "rstore-bench-readheavy-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID:        "readheavy",
		Title:     fmt.Sprintf("read-heavy zipfian point gets: %d keys x %dB, %d overwrites, %d reads", nKeys, valSize, nKeys, reads),
		PaperNote: "extension beyond the paper: durable-engine read path under the multi-version serving workload",
		Headers:   []string{"engine", "load", "reads/s", "p50", "p95", "p99", "disk", "live"},
		Metrics:   map[string]float64{},
	}

	// A 256 KiB memtable puts the load on a multi-table layout before the
	// compaction runs.
	be, err := lsm.Open(dir, lsm.Options{MemtableBytes: 256 << 10})
	if err != nil {
		return nil, fmt.Errorf("bench readheavy: open lsm: %w", err)
	}
	res, err := runReadHeavyOn(ctx, be, nKeys, valSize, reads, opts.Seed)
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("bench readheavy: lsm: %w", err)
	}
	rps := float64(reads) / res.read.Seconds()
	p50, p95, p99 := pctl(res.lat, 0.50), pctl(res.lat, 0.95), pctl(res.lat, 0.99)
	t.AddRow("lsm", secs(res.load.Seconds()), fmt.Sprintf("%.0f", rps),
		us(p50), us(p95), us(p99), mb(res.disk), mb(res.live))
	t.Metrics["lsm_reads_per_sec"] = rps
	t.Metrics["lsm_p50_us"] = usF(p50)
	t.Metrics["lsm_p95_us"] = usF(p95)
	t.Metrics["lsm_p99_us"] = usF(p99)
	t.Metrics["lsm_load_sec"] = res.load.Seconds()
	t.Metrics["lsm_disk_bytes"] = float64(res.disk)

	remoteTbl, err := runReadHeavyRemote(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("bench readheavy: remote phase: %w", err)
	}
	return []*Table{t, remoteTbl}, nil
}

// runReadHeavyRemote measures wire-level MultiGet: an rf=3 cluster of
// three in-process storage daemons behind real TCP sockets, read zipfian
// in fixed-size batches (one OpMultiGet round trip per node per batch).
func runReadHeavyRemote(ctx context.Context, opts Options) (*Table, error) {
	nKeys := scaled(20000, opts.RecordFrac, 400)
	valSize := scaled(1024, opts.SizeFrac, 64)
	const batchSize = 64
	nBatches := 4 * nKeys / batchSize
	if nBatches < 50 {
		nBatches = 50
	}

	servers := make([]*engined.Server, 0, 3)
	backends := make([]engine.Backend, 0, 3)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, b := range backends {
			b.Close()
		}
	}()
	addrs := make([]string, 3)
	for i := range addrs {
		be := memory.New()
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			return nil, err
		}
		backends = append(backends, be)
		servers = append(servers, srv)
		addrs[i] = srv.Addr().String()
	}
	// rf=3 on 3 nodes puts every key on every replica.
	s, err := kvstore.Open(ctx, kvstore.Config{
		Engine: kvstore.EngineRemote, NodeAddrs: addrs, ReplicationFactor: 3,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }
	mkval := func(i int) []byte {
		b := make([]byte, valSize)
		copy(b, fmt.Sprintf("doc-%06d:", i))
		return b
	}
	ents := make([]kvstore.Entry, 0, 128)
	for i := 0; i < nKeys; i++ {
		ents = append(ents, kvstore.Entry{Key: key(i), Value: mkval(i)})
		if len(ents) == cap(ents) || i == nKeys-1 {
			if err := s.BatchPut(ctx, "t", ents); err != nil {
				return nil, err
			}
			ents = ents[:0]
		}
	}

	// Precomputed zipfian batches, so the timed loop measures MultiGet.
	rnd := rand.New(rand.NewSource(opts.Seed))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(nKeys-1))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = key(i)
	}
	access := make([][]string, nBatches)
	for b := range access {
		access[b] = make([]string, batchSize)
		for j := range access[b] {
			access[b][j] = keys[zipf.Uint64()]
		}
	}

	for i := 0; i < 3; i++ { // warm-up: conns dialed, caches touched
		if _, err := s.MultiGet(ctx, "t", access[i%len(access)]); err != nil {
			return nil, err
		}
	}
	lat := make([]time.Duration, 0, nBatches)
	start := time.Now()
	for _, b := range access {
		t0 := time.Now()
		res, err := s.MultiGet(ctx, "t", b)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if len(res.Missing) != 0 {
			return nil, fmt.Errorf("multiget missing %d keys", len(res.Missing))
		}
	}
	elapsed := time.Since(start)
	sortDurations(lat)

	t := &Table{
		ID:        "readheavy-remote",
		Title:     fmt.Sprintf("batched MultiGet over TCP: rf=3 on 3 daemons, %d keys x %dB, %d batches x %d keys", nKeys, valSize, nBatches, batchSize),
		PaperNote: "extension beyond the paper: one wire round trip per node per batch",
		Headers:   []string{"read path", "keys/s", "batch p50", "batch p95", "batch p99"},
		Metrics:   map[string]float64{},
	}
	kps := float64(nBatches*batchSize) / elapsed.Seconds()
	p50, p95, p99 := pctl(lat, 0.50), pctl(lat, 0.95), pctl(lat, 0.99)
	t.AddRow("batched", fmt.Sprintf("%.0f", kps), us(p50), us(p95), us(p99))
	t.Metrics["multiget_batched_keys_per_sec"] = kps
	t.Metrics["multiget_batched_batch_p50_us"] = usF(p50)
	t.Metrics["multiget_batched_batch_p95_us"] = usF(p95)
	t.Metrics["multiget_batched_batch_p99_us"] = usF(p99)
	return t, nil
}

// rhResult is the engine's run of the readheavy workload.
type rhResult struct {
	load time.Duration
	read time.Duration
	lat  []time.Duration // sampled read latencies, sorted ascending
	disk int64
	live int64
}

// runReadHeavyOn drives the workload against one backend. The RNG is
// seeded from seed, so every run sees byte-identical key and access
// sequences.
func runReadHeavyOn(ctx context.Context, be engine.Backend, nKeys, valSize, reads int, seed int64) (rhResult, error) {
	var res rhResult
	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }
	mkval := func(i, rev int) []byte {
		b := make([]byte, valSize)
		copy(b, fmt.Sprintf("doc-%06d rev-%d:", i, rev))
		return b
	}
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(nKeys-1))

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
	// Bulk load: every key once, through the fsynced batch path.
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
	// Overwrite pass: zipfian, so hot documents accumulate dead versions —
	// the multi-version update pattern the paper's workload implies.
	for w := 0; w < nKeys; w++ {
		i := int(zipf.Uint64())
		ents = append(ents, engine.Entry{Key: key(i), Value: mkval(i, 1)})
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

	// Compact to steady state: the engine reclaims its dead versions
	// before the timed read phase, so the measurement is the read path,
	// not compaction debt.
	if c, ok := be.(engine.Compactor); ok {
		if _, err := c.Compact(ctx); err != nil {
			return res, err
		}
	}

	// Precompute every key string and the zipfian access sequence so the
	// timed loop measures the engine's Get path, not rng and fmt overhead.
	// Latencies are sampled (every 8th read) instead of timed per read for
	// the same reason; 1/8 of a 20x-keys read phase is still a deep sample.
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = key(i)
	}
	access := make([]int32, reads)
	for q := range access {
		access[q] = int32(zipf.Uint64())
	}
	// Warm-up: touch every key once, untimed, so the timed phase measures
	// steady-state serving (populated row/block/page caches) rather than
	// first-touch fill costs.
	for _, k := range keys {
		if _, ok, err := be.Get(ctx, "t", k); err != nil || !ok {
			return res, fmt.Errorf("warmup %s: ok=%v err=%w", k, ok, err)
		}
	}
	docPrefix := []byte("doc-")
	const latEvery = 8
	res.lat = make([]time.Duration, 0, reads/latEvery+1)
	rstart := time.Now()
	for q := 0; q < reads; q++ {
		k := keys[access[q]]
		sampled := q%latEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		v, ok, err := be.Get(ctx, "t", k)
		if sampled {
			res.lat = append(res.lat, time.Since(t0))
		}
		if err != nil {
			return res, err
		}
		if !ok || len(v) != valSize || !bytes.HasPrefix(v, docPrefix) {
			return res, fmt.Errorf("read %s: ok=%v len=%d", k, ok, len(v))
		}
	}
	res.read = time.Since(rstart)
	sort.Slice(res.lat, func(a, b int) bool { return res.lat[a] < res.lat[b] })

	if c, ok := be.(engine.Compactor); ok {
		st, err := c.CompactionStats(ctx)
		if err != nil {
			return res, err
		}
		res.disk, res.live = st.DiskBytes, st.LiveBytes
	}
	return res, nil
}

// pctl reads the p-quantile from an ascending latency sample.
func pctl(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func us(d time.Duration) string { return fmt.Sprintf("%.1fµs", usF(d)) }

func usF(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
