package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"time"

	"rstore/internal/corpus"
	"rstore/internal/intset"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// Dataset shape: Table 2's B1 halved in versions and cut to 4000 records
// per version, built directly rather than through Spec.Scaled (which would
// turn B1's zero RecordSize into 64 B records).
const (
	numVersions       = 500
	avgDepth          = 146.75
	recordsPerVersion = 4000
	recordSize        = 512
	updatePct         = 0.05
	pdBound           = 0.05
)

// chunkCapacity holds recordsPerVersion/32 records per chunk, the rule
// internal/bench uses, so a version spans tens of chunks as the paper's
// 1 MiB chunks do over ~100 MB versions.
const chunkCapacity = recordsPerVersion / 32 * (recordSize + types.RecordOverhead)

func datasetSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name:              "B1",
		Versions:          numVersions,
		AvgDepth:          avgDepth,
		RecordsPerVersion: recordsPerVersion,
		UpdatePct:         updatePct,
		Update:            workload.RandomUpdate,
		RecordSize:        recordSize,
		Pd:                pdBound,
		// workload.Generate maps seed 0 to its default; shift so every
		// benchmark seed, 0 included, names its own dataset.
		Seed: seed + 1,
	}
}

// digest summarizes a record set independently of order: the record count
// and the wrapping sum of per-record hashes over (key, origin, value).
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(h uint64) { d.n++; d.sum += h }

func (d digest) String() string { return fmt.Sprintf("%d/%016x", d.n, d.sum) }

// recordHash hashes one record's key, origin version and value.
func recordHash(key types.Key, origin types.VersionID, value []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var v [5]byte
	binary.LittleEndian.PutUint32(v[1:], uint32(origin))
	h.Write(v[:])
	h.Write(value)
	// FNV's low bits mix poorly; a final avalanche keeps sums of
	// near-identical records from cancelling into each other.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func hashRecord(r types.Record) uint64 { return recordHash(r.CK.Key, r.CK.Version, r.Value) }

// dataset is the generated corpus plus what the verifier precomputes from
// it before the store takes ownership.
type dataset struct {
	c         *corpus.Corpus
	recHash   []uint64 // by record id
	userBytes int64    // unique record bytes (values), the denominator of storage overhead
	newest    types.VersionID
	digest    uint64 // identifies the generated bytes
	genTime   time.Duration

	members map[types.VersionID]intset.Set
}

func generate(seed int64) (*dataset, error) {
	start := time.Now()
	c, err := workload.Generate(datasetSpec(seed))
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		c:       c,
		recHash: make([]uint64, c.NumRecords()),
		newest:  types.VersionID(c.NumVersions() - 1),
		genTime: time.Since(start),
		members: map[types.VersionID]intset.Set{},
	}
	whole := fnv.New64a()
	var buf [8]byte
	for id := range ds.recHash {
		r := c.Record(uint32(id))
		ds.recHash[id] = hashRecord(r)
		ds.userBytes += int64(len(r.Value))
		binary.LittleEndian.PutUint64(buf[:], ds.recHash[id])
		whole.Write(buf[:])
	}
	for v := 0; v < c.NumVersions(); v++ {
		for _, p := range c.Graph().Parents(types.VersionID(v)) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(p))
			whole.Write(buf[:4])
		}
	}
	ds.digest = whole.Sum64()
	return ds, nil
}

// membersOf memoizes corpus.Members; plans are built before the store
// owns the corpus, so no lock is needed.
func (ds *dataset) membersOf(v types.VersionID) intset.Set {
	m, ok := ds.members[v]
	if !ok {
		var err error
		if m, err = ds.c.Members(v); err != nil {
			panic(err) // plans only name versions the generator made
		}
		ds.members[v] = m
	}
	return m
}

func (ds *dataset) versionDigest(v types.VersionID, keep func(types.Key) bool) digest {
	var d digest
	for _, id := range ds.membersOf(v) {
		if keep == nil || keep(ds.c.Record(id).CK.Key) {
			d.add(ds.recHash[id])
		}
	}
	return d
}

func (ds *dataset) historyDigest(key types.Key) digest {
	var d digest
	for _, id := range ds.c.KeyRecords(key) {
		d.add(ds.recHash[id])
	}
	return d
}

// liveKeys returns the keys live in v, sorted, with each key's record hash.
func (ds *dataset) liveKeys(v types.VersionID) ([]types.Key, map[types.Key]uint64) {
	m := ds.membersOf(v)
	out := make([]types.Key, len(m))
	hashes := make(map[types.Key]uint64, len(m))
	for i, id := range m {
		out[i] = ds.c.Record(id).CK.Key
		hashes[out[i]] = ds.recHash[id]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, hashes
}

// opKind names the client call an op makes.
type opKind uint8

const (
	opVersion opKind = iota // Q1: GetVersion
	opRange                 // Q2: GetRange
	opHistory               // Q3: GetHistory
	opRecord                // GetRecord
	opCommit                // POST /commit
	numOpKinds
)

var opNames = [numOpKinds]string{"version", "range", "history", "record", "commit"}

func (k opKind) String() string { return opNames[k] }

// op is one planned client call and the digest its result must have.
// Commits and ingest-side reads carry their expectation in the committer's
// model instead (see ingest.go).
type op struct {
	kind   opKind
	v      types.VersionID
	key    types.Key // record, history
	lo, hi types.Key // range
	want   digest
}

func (o op) encode(h io.Writer) {
	var buf [5]byte
	buf[0] = byte(o.kind)
	binary.LittleEndian.PutUint32(buf[1:], uint32(o.v))
	h.Write(buf[:])
	fmt.Fprintf(h, "%s|%s|%s|%s;", o.key, o.lo, o.hi, o.want)
}

// planScan draws n ops: one third GetVersion, two thirds GetRange over 10%
// of the keys live in the queried version, versions uniform over the whole
// dataset. Every range returns the same number of records, so the range
// latency distribution does not hinge on which ranges a seed happens to
// draw empty.
func planScan(ds *dataset, rng *rand.Rand, n int) []op {
	nv := ds.c.NumVersions()
	ops := make([]op, n)
	for i := range ops {
		v := types.VersionID(rng.Intn(nv))
		if i%3 == 0 {
			ops[i] = op{kind: opVersion, v: v, want: ds.versionDigest(v, nil)}
			continue
		}
		live, _ := ds.liveKeys(v)
		width := len(live) / 10
		start := rng.Intn(len(live) - width)
		lo, hi := live[start], live[start+width]
		ops[i] = op{kind: opRange, v: v, lo: lo, hi: hi,
			want: ds.versionDigest(v, func(k types.Key) bool { return k >= lo && k < hi })}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// popularityPhases is how many times a lookup op list redraws which keys
// are hot. Under s=1.1 a handful of keys take most of the requests, so one
// draw per list would make a run's latencies mostly a property of those few
// keys and of the seed; sixteen draws average that out within a run.
const popularityPhases = 16

// planLookup draws n ops: 8 of every 9 GetRecord, 1 GetHistory. Versions
// come from the newest 10%; keys are zipfian (s=1.1) over the keys live in
// the queried version, ranked by a seeded permutation of the key space so
// the hot keys are the same across versions and scattered across chunks.
// The permutation is redrawn at the start of each of popularityPhases equal
// stretches of the list.
func planLookup(ds *dataset, rng *rand.Rand, n int) []op {
	nv := ds.c.NumVersions()
	recent := (nv + 9) / 10
	phase := max((n+popularityPhases-1)/popularityPhases, 1)
	rank := map[types.Key]int{}
	type live struct {
		keys   []types.Key // by popularity rank
		hashes map[types.Key]uint64
		zipf   *rand.Zipf
	}
	var byVersion map[types.VersionID]*live
	ops := make([]op, n)
	for i := range ops {
		if i%phase == 0 {
			for r, p := range rng.Perm(ds.c.NumKeys()) {
				rank[workload.KeyFor(p)] = r
			}
			byVersion = map[types.VersionID]*live{}
		}
		v := ds.newest - types.VersionID(rng.Intn(recent))
		lv, ok := byVersion[v]
		if !ok {
			keys, hashes := ds.liveKeys(v)
			sort.Slice(keys, func(a, b int) bool { return rank[keys[a]] < rank[keys[b]] })
			lv = &live{keys: keys, hashes: hashes, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))}
			byVersion[v] = lv
		}
		key := lv.keys[lv.zipf.Uint64()]
		if i%9 == 8 {
			ops[i] = op{kind: opHistory, v: v, key: key, want: ds.historyDigest(key)}
			continue
		}
		ops[i] = op{kind: opRecord, v: v, key: key, want: digest{n: 1, sum: lv.hashes[key]}}
	}
	return ops
}
