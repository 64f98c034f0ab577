// Package index implements the two lossy projections of paper §2.4 (Fig 3b):
// the version→chunks mapping (which chunks contain records of a given
// version) and the key→chunks mapping (which chunks contain records of a
// given primary key). Query processing intersects/consults these to decide
// what to fetch; they are lossy in that a retrieved chunk may turn out to
// contain no records of interest for key-and-version queries.
//
// The projections are held as in-memory hash maps (the paper measures tens
// of MB even for its biggest datasets) and persisted to the KVS with
// delta-gap posting-list compression, the standard inverted-index technique
// the paper points to.
package index

import (
	"context"
	"fmt"
	"sort"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// Projections is the pair of lossy indexes.
type Projections struct {
	versionChunks map[types.VersionID][]chunk.ID
	keyChunks     map[types.Key][]chunk.ID
}

// New returns empty projections.
func New() *Projections {
	return &Projections{
		versionChunks: make(map[types.VersionID][]chunk.ID),
		keyChunks:     make(map[types.Key][]chunk.ID),
	}
}

// ObserveVersionChunk records that version v has records in chunk c. It
// implements chunk.MembershipObserver so the projection fills during chunk
// map construction. Duplicate observations are tolerated.
func (p *Projections) ObserveVersionChunk(v types.VersionID, c chunk.ID) {
	p.versionChunks[v] = appendChunk(p.versionChunks[v], c)
}

// AddKeyChunk records that primary key k has records in chunk c.
func (p *Projections) AddKeyChunk(k types.Key, c chunk.ID) {
	p.keyChunks[k] = appendChunk(p.keyChunks[k], c)
}

// appendChunk appends c to l unless it repeats l's last id.
func appendChunk(l []chunk.ID, c chunk.ID) []chunk.ID {
	if n := len(l); n > 0 && l[n-1] == c {
		return l
	}
	return append(l, c)
}

// Normalize sorts and deduplicates every adjacency list. Call once after
// bulk construction.
func (p *Projections) Normalize() {
	for v, l := range p.versionChunks {
		p.versionChunks[v] = sortDedup(l)
	}
	for k, l := range p.keyChunks {
		p.keyChunks[k] = sortDedup(l)
	}
}

func sortDedup(l []chunk.ID) []chunk.ID {
	if len(l) < 2 {
		return l
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	out := l[:1]
	for _, c := range l[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// VersionChunks returns the chunks containing records of version v (sorted).
// The slice is shared; callers must not mutate.
func (p *Projections) VersionChunks(v types.VersionID) []chunk.ID {
	return p.versionChunks[v]
}

// KeyChunks returns the chunks containing records of primary key k (sorted).
func (p *Projections) KeyChunks(k types.Key) []chunk.ID {
	return p.keyChunks[k]
}

// Intersect returns the chunks appearing in both projections for (k, v) —
// the "index-ANDing" of §2.4 used by record and range retrieval.
func (p *Projections) Intersect(k types.Key, v types.VersionID) []chunk.ID {
	a, b := p.keyChunks[k], p.versionChunks[v]
	var out []chunk.ID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// VersionSpan returns |chunks(v)| — the span of a full version retrieval.
func (p *Projections) VersionSpan(v types.VersionID) int { return len(p.versionChunks[v]) }

// KeySpan returns |chunks(k)| — the span of a record-evolution query.
func (p *Projections) KeySpan(k types.Key) int { return len(p.keyChunks[k]) }

// TotalVersionSpan sums the span over all versions — the headline
// partitioning-quality metric of the paper's Figs 8–10.
func (p *Projections) TotalVersionSpan() int {
	total := 0
	for _, l := range p.versionChunks {
		total += len(l)
	}
	return total
}

// TotalKeySpan sums the key span over all keys.
func (p *Projections) TotalKeySpan() int {
	total := 0
	for _, l := range p.keyChunks {
		total += len(l)
	}
	return total
}

// NumVersions returns how many versions have at least one chunk.
func (p *Projections) NumVersions() int { return len(p.versionChunks) }

// NumKeys returns how many keys have at least one chunk.
func (p *Projections) NumKeys() int { return len(p.keyChunks) }

// SizeBytes estimates the in-memory footprint of both projections as the
// paper reports it: the adjacency lists stored as 4-byte ids.
func (p *Projections) SizeBytes() (versionIdx, keyIdx int64) {
	for _, l := range p.versionChunks {
		versionIdx += int64(4 * len(l))
	}
	for k, l := range p.keyChunks {
		keyIdx += int64(len(k)) + int64(4*len(l))
	}
	return versionIdx, keyIdx
}

// KVS persistence: both projections live in dedicated tables, one entry per
// version / key, posting-list compressed.

// TableVersionIndex and TableKeyIndex are the KVS table names.
const (
	TableVersionIndex = "idx_version"
	TableKeyIndex     = "idx_key"
)

// Save persists both projections, each table committed as one batched write
// (one durability sync per table instead of one per version/key).
func (p *Projections) Save(ctx context.Context, kv *kvstore.Store) error {
	vEntries := make([]kvstore.Entry, 0, len(p.versionChunks))
	for v, l := range p.versionChunks {
		vEntries = append(vEntries, kvstore.Entry{
			Key:   fmt.Sprintf("v%08x", uint32(v)),
			Value: codec.PutPostingList(nil, l),
		})
	}
	if err := kv.BatchPut(ctx, TableVersionIndex, vEntries); err != nil {
		return err
	}
	kEntries := make([]kvstore.Entry, 0, len(p.keyChunks))
	for k, l := range p.keyChunks {
		kEntries = append(kEntries, kvstore.Entry{
			Key:   string(k),
			Value: codec.PutPostingList(nil, l),
		})
	}
	return kv.BatchPut(ctx, TableKeyIndex, kEntries)
}

// Edit is a copy-on-write change set over a Projections. The online flush
// stages its projection changes in one while queries keep reading the
// base, persists them with Save, and installs them with Apply in one short
// critical section. An edit holds private copies of only the lists it
// touches — copied on first touch, never written in place — so the base a
// concurrent reader sees is never half-built.
type Edit struct {
	base *Projections
	own  *Projections // the edit's private copies of the touched lists
}

// Edit starts an edit of p. p must not change until the edit is applied
// or dropped.
func (p *Projections) Edit() *Edit {
	return &Edit{base: p, own: New()}
}

// VersionChunks returns version v's chunks as the edit sees them: its own
// list if it touched v, the base's otherwise. The slice is shared; callers
// must not mutate.
func (e *Edit) VersionChunks(v types.VersionID) []chunk.ID {
	if l, ok := e.own.versionChunks[v]; ok {
		return l
	}
	return e.base.versionChunks[v]
}

// ObserveVersionChunk is Projections.ObserveVersionChunk on the edit.
func (e *Edit) ObserveVersionChunk(v types.VersionID, c chunk.ID) {
	l, ok := e.own.versionChunks[v]
	if !ok {
		l = cloneList(e.base.versionChunks[v])
	}
	e.own.versionChunks[v] = appendChunk(l, c)
}

// AddKeyChunk is Projections.AddKeyChunk on the edit.
func (e *Edit) AddKeyChunk(k types.Key, c chunk.ID) {
	l, ok := e.own.keyChunks[k]
	if !ok {
		l = cloneList(e.base.keyChunks[k])
	}
	e.own.keyChunks[k] = appendChunk(l, c)
}

// cloneList copies l into a fresh array with room for one more id.
func cloneList(l []chunk.ID) []chunk.ID {
	return append(make([]chunk.ID, 0, len(l)+1), l...)
}

// Normalize sorts and deduplicates the edit's own lists.
func (e *Edit) Normalize() { e.own.Normalize() }

// Save persists only the rows the edit touched; the others are already
// persisted as they stand.
func (e *Edit) Save(ctx context.Context, kv *kvstore.Store) error { return e.own.Save(ctx, kv) }

// Apply installs the edit's lists into the base. The caller excludes the
// base's readers for its duration.
func (e *Edit) Apply() {
	for v, l := range e.own.versionChunks {
		e.base.versionChunks[v] = l
	}
	for k, l := range e.own.keyChunks {
		e.base.keyChunks[k] = l
	}
}

// EntryKeys returns the KVS keys Save writes for each projection table, so
// a full repartition can delete the superseded rows afterwards.
func (p *Projections) EntryKeys() (version []string, key []string) {
	version = make([]string, 0, len(p.versionChunks))
	for v := range p.versionChunks {
		version = append(version, fmt.Sprintf("v%08x", uint32(v)))
	}
	key = make([]string, 0, len(p.keyChunks))
	for k := range p.keyChunks {
		key = append(key, string(k))
	}
	return version, key
}

// PruneChunks drops references to chunk ids at or past n from both
// projections. Core uses it on load to discard references a crashed flush
// saved for chunks that never made it into the manifest.
func (p *Projections) PruneChunks(n chunk.ID) {
	for v, l := range p.versionChunks {
		p.versionChunks[v] = pruneList(l, n)
	}
	for k, l := range p.keyChunks {
		p.keyChunks[k] = pruneList(l, n)
	}
}

// pruneList filters ids >= n in place.
func pruneList(l []chunk.ID, n chunk.ID) []chunk.ID {
	out := l[:0]
	for _, id := range l {
		if id < n {
			out = append(out, id)
		}
	}
	return out
}

// Load rebuilds projections from the KVS tables.
func Load(ctx context.Context, kv *kvstore.Store) (*Projections, error) {
	p := New()
	var firstErr error
	err := kv.Scan(ctx, TableVersionIndex, func(key string, value []byte) bool {
		var v uint32
		if _, err := fmt.Sscanf(key, "v%08x", &v); err != nil {
			firstErr = fmt.Errorf("%w: bad version index key %q", types.ErrCorrupt, key)
			return false
		}
		l, _, err := codec.PostingList(value)
		if err != nil {
			firstErr = err
			return false
		}
		p.versionChunks[types.VersionID(v)] = l
		return true
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	err = kv.Scan(ctx, TableKeyIndex, func(key string, value []byte) bool {
		l, _, err := codec.PostingList(value)
		if err != nil {
			firstErr = err
			return false
		}
		p.keyChunks[types.Key(key)] = l
		return true
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return p, nil
}
