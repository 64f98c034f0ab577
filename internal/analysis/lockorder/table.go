package lockorder

// An Edge declares one permitted lock-order pair: To may be acquired while
// From is held. Locks carry their canonical rank-table identity —
// "<pkg-path>.<TypeName>.<field>" for struct-field mutexes (one rank per
// type, covering every instance), "<pkg-path>.<var>" for package-level
// ones. Reason documents why the nesting is safe, in the spirit of the
// escape hatch: rankings stay auditable.
type Edge struct {
	From, To string
	Reason   string
}

// Table is the module's lock-rank order. lockorder requires every observed
// nesting to appear here and the relation to stay acyclic (verified by the
// analyzer on every run and by TestTableAcyclic). Adding a row is a claim
// that every holder of From may block on To and no holder of To ever
// blocks on From's holders — justify it in Reason.
var Table = []Edge{
	{
		From:   "rstore/internal/engine/lsm.Backend.compactMu",
		To:     "rstore/internal/engine/lsm.Backend.mu",
		Reason: "flush/merge serialize on compactMu and take mu only to install results; mu holders only TryLock compactMu (maybeTierCompactLocked), which cannot block",
	},
	{
		From:   "rstore/internal/engine/lsm.Backend.mu",
		To:     "rstore/internal/engine/lsm.cacheShard.mu",
		Reason: "writes and reads under mu update the block cache; cache shards are leaf locks protecting only their own map",
	},
	{
		From:   "rstore/internal/engine/lsm.Backend.mu",
		To:     "rstore/internal/engine/lsm.rowShard.mu",
		Reason: "writes and reads under mu update the row cache; row shards are leaf locks protecting only their own map",
	},
	{
		From:   "rstore/internal/engine/lsm.Backend.compactMu",
		To:     "rstore/internal/engine/lsm.cacheShard.mu",
		Reason: "merges running under compactMu invalidate cache entries for retired tables; cache shards are leaf locks",
	},
	{
		From:   "rstore/internal/core.Store.mu",
		To:     "rstore/internal/core.chunkCache.mu",
		Reason: "queries under the read side populate the chunk cache and publish steps under the write side invalidate it; the cache lock is a leaf protecting only its own map",
	},
	{
		From:   "rstore/internal/core.Store.mu",
		To:     "rstore/internal/kvstore.repairer.mu",
		Reason: "queries under Store.mu read through kvstore, whose read-repair bookkeeping takes its own short-lived locks; kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.mu",
		To:     "rstore/internal/kvstore.repairer.hmu",
		Reason: "queries under Store.mu can park repair hints in kvstore; the hint-queue lock is a leaf and kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.mu",
		To:     "rstore/internal/kvstore.repairer.tmu",
		Reason: "queries under Store.mu can record repair targets in kvstore; the target-table lock is a leaf and kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.writeMu",
		To:     "rstore/internal/core.Store.mu",
		Reason: "mutators serialize on writeMu and take mu only to publish their staged result; mu holders (queries, publish sections) never take writeMu",
	},
	{
		From:   "rstore/internal/core.Store.writeMu",
		To:     "rstore/internal/core.chunkCache.mu",
		Reason: "flush and materialize invalidate or reset the chunk cache while serialized on writeMu; the cache lock is a leaf protecting only its own map",
	},
	{
		From:   "rstore/internal/core.Store.writeMu",
		To:     "rstore/internal/kvstore.repairer.mu",
		Reason: "mutators do all their KVS I/O under writeMu, and kvstore's read-repair bookkeeping takes its own short-lived locks; kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.writeMu",
		To:     "rstore/internal/kvstore.repairer.hmu",
		Reason: "mutators' writes under writeMu can park hints in kvstore; the hint-queue lock is a leaf and kvstore never calls back into core",
	},
	{
		From:   "rstore/internal/core.Store.writeMu",
		To:     "rstore/internal/kvstore.repairer.tmu",
		Reason: "mutators' writes under writeMu can record repair targets in kvstore; the target-table lock is a leaf and kvstore never calls back into core",
	},
}
