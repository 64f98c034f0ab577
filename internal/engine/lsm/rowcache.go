package lsm

import (
	"sync"
)

// rowCache is a byte-bounded sharded cache from internal key to latest
// live value — the layer above the BlockCache on the point-read path. A
// hit answers a Get with one map probe and one copy, skipping the
// memtable, bloom, index, and block machinery entirely; under skewed read
// traffic (the RStore serving premise) that is where almost every read
// lands.
//
// Entries live in a per-shard slot arena and recency is CLOCK
// (second-chance) rather than a linked-list LRU: a hit sets one bit
// instead of splicing list nodes, and a lookup costs map-bucket → arena
// slot → value — one pointer hop fewer than a list-backed design, which
// is what matters when the tail of a zipfian keyspace misses every CPU
// cache level.
//
// Coherence is by write-side invalidation: Get fills the cache while
// holding b.mu (read mode) and every mutation (applyPutLocked /
// applyDelLocked, called under b.mu exclusive) invalidates the key, so a
// fill and the invalidation that supersedes it cannot interleave. Flush
// and compaction move bytes without changing logical content, so they
// leave the cache alone; Reset wipes it.
//
// The cache is per-Backend: distinct nodes of a cluster may legitimately
// hold different values under the same (table, key) mid-repair, so row
// entries — unlike immutable data blocks — must never be shared.
type rowCache struct {
	shards [rowShards]rowShard
}

const rowShards = 16

type rowShard struct {
	mu    sync.Mutex
	cap   int64
	size  int64
	items map[string]int32 // internal key → slot in ents
	ents  []rowEnt
	free  []int32 // dead slots available for reuse
	hand  int32   // CLOCK sweep position
}

type rowEnt struct {
	key     string
	val     []byte
	touched bool // set on hit, cleared by the sweep: second chance
	live    bool
}

// newRowCache builds a cache bounded by capBytes of key+value payload.
func newRowCache(capBytes int64) *rowCache {
	c := &rowCache{}
	per := capBytes / rowShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = rowShard{cap: per, items: map[string]int32{}}
	}
	return c
}

// shard hashes the internal key (FNV-1a) to one of the independent shards.
func (c *rowCache) shard(ik []byte) *rowShard {
	h := uint64(14695981039346656037)
	for _, b := range ik {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &c.shards[(h>>59)%rowShards]
}

// get returns a copy of the cached value for ik — its first limit bytes
// when limit ≥ 0. The map index uses the string(ik) conversion form so the
// lookup itself does not allocate.
func (c *rowCache) get(ik []byte, limit int) ([]byte, bool) {
	s := c.shard(ik)
	s.mu.Lock()
	slot, ok := s.items[string(ik)]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	e := &s.ents[slot]
	e.touched = true
	v := e.val
	if limit >= 0 && len(v) > limit {
		v = v[:limit]
	}
	out := make([]byte, len(v))
	copy(out, v)
	s.mu.Unlock()
	return out, true
}

// put installs a private copy of val under ik, evicting via the CLOCK
// sweep until the shard fits its budget.
func (c *rowCache) put(ik, val []byte) {
	s := c.shard(ik)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.items[string(ik)]; ok {
		e := &s.ents[slot]
		s.size += int64(len(val)) - int64(len(e.val))
		e.val = append(e.val[:0], val...)
		e.touched = true
	} else {
		e := rowEnt{key: string(ik), val: append([]byte(nil), val...), touched: true, live: true}
		var slot int32
		if n := len(s.free); n > 0 {
			slot = s.free[n-1]
			s.free = s.free[:n-1]
			s.ents[slot] = e
		} else {
			slot = int32(len(s.ents))
			s.ents = append(s.ents, e)
		}
		s.items[e.key] = slot
		s.size += int64(len(e.key) + len(e.val))
	}
	for s.size > s.cap && len(s.items) > 1 {
		s.sweepOne()
	}
}

// sweepOne advances the CLOCK hand until it evicts one entry: touched
// entries get their second chance (bit cleared), untouched ones go.
func (s *rowShard) sweepOne() {
	for {
		if int(s.hand) >= len(s.ents) {
			s.hand = 0
		}
		e := &s.ents[s.hand]
		s.hand++
		if !e.live {
			continue
		}
		if e.touched {
			e.touched = false
			continue
		}
		s.evict(s.hand - 1)
		return
	}
}

// evict frees the live entry in slot; callers hold s.mu.
func (s *rowShard) evict(slot int32) {
	e := &s.ents[slot]
	delete(s.items, e.key)
	s.size -= int64(len(e.key) + len(e.val))
	*e = rowEnt{}
	s.free = append(s.free, slot)
}

// invalidate drops ik from the cache; mutations call this under b.mu held
// exclusively, which orders it after any concurrent fill.
func (c *rowCache) invalidate(ik []byte) {
	s := c.shard(ik)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.items[string(ik)]; ok {
		s.evict(slot)
	}
}

// wipe empties every shard (Reset).
func (c *rowCache) wipe() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = map[string]int32{}
		s.ents = nil
		s.free = nil
		s.size = 0
		s.hand = 0
		s.mu.Unlock()
	}
}
