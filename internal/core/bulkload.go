package core

import (
	"context"
	"fmt"
	"sort"

	"rstore/internal/corpus"
	"rstore/internal/types"
)

// BulkLoad adopts a pre-built corpus (e.g. a generated dataset or an export
// from another system) into an empty store and materializes it offline with
// the configured partitioner. The store takes ownership of the corpus.
func (s *Store) BulkLoad(ctx context.Context, c *corpus.Corpus) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	if s.graph.NumVersions() != 0 {
		return fmt.Errorf("rstore: bulk load requires an empty store (have %d versions)", s.graph.NumVersions())
	}
	if err := c.Graph().Validate(); err != nil {
		return err
	}
	keys := append([]types.Key(nil), c.Keys()...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// The corpus is published together with its placement: a query never
	// sees versions that are neither placed nor pending.
	return s.materialize(ctx, c, func() {
		s.graph = c.Graph()
		s.corpus = c
		s.sortedKeys = keys
	})
}

// CommitDelta ingests a version whose delta the client computed itself —
// the paper's native ingest path ("the system requests only those records
// from the client that have changed, which in essence is the delta", §2.4).
// Added records must carry the new version id in their composite keys unless
// they re-introduce an existing record (merge traffic). The first commit
// (parents = [InvalidVersion]) creates the root.
func (s *Store) CommitDelta(ctx context.Context, parents []types.VersionID, delta *types.Delta) (types.VersionID, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.mutable(); err != nil {
		return types.InvalidVersion, err
	}
	if len(parents) == 0 {
		return types.InvalidVersion, fmt.Errorf("rstore: commit needs a parent")
	}
	// Validate against the predicted id before mutating the graph (failed
	// commits must leave no trace).
	v := types.VersionID(s.graph.NumVersions())
	if parents[0] == types.InvalidVersion {
		if s.graph.NumVersions() != 0 {
			return types.InvalidVersion, fmt.Errorf("rstore: root version already exists")
		}
	} else if err := validParents(s.graph, parents); err != nil {
		return types.InvalidVersion, err
	}
	if !delta.IsConsistent() {
		return types.InvalidVersion, fmt.Errorf("%w: version %d", types.ErrInconsistentDelta, v)
	}
	// Fresh adds must originate here; re-adds must already exist.
	for _, r := range delta.Adds {
		if r.CK.Version != v {
			if _, ok := s.corpus.IDForCK(r.CK); !ok {
				return types.InvalidVersion, fmt.Errorf("rstore: delta add %v neither originates at %d nor exists", r.CK, v)
			}
		}
	}
	for _, ck := range delta.Dels {
		if _, ok := s.corpus.IDForCK(ck); !ok {
			return types.InvalidVersion, fmt.Errorf("%w: delta deletes unknown record %v", types.ErrNotFound, ck)
		}
	}
	if err := s.addVersion(ctx, v, parents, delta); err != nil {
		return types.InvalidVersion, err
	}
	if err := s.flushIfBatchFull(ctx); err != nil {
		return types.InvalidVersion, err
	}
	return v, nil
}

// ChunkStorageBytes sums the persisted chunk entry sizes (payloads + maps).
// A backend scan failure reports zero; it is a stats helper, not a source of
// truth.
func (s *Store) ChunkStorageBytes(ctx context.Context) int64 {
	var total int64
	if err := s.kv.Scan(ctx, TableChunks, func(_ string, value []byte) bool {
		total += int64(len(value))
		return true
	}); err != nil {
		return 0
	}
	return total
}
