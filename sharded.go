package gausstree

import (
	"fmt"

	"github.com/gauss-tree/gausstree/internal/shard"
)

// PartitionPolicy selects how a sharded tree routes vectors to shards.
type PartitionPolicy uint8

const (
	// PartitionHashByID (the default) hashes the object id, so placement is
	// stable across restarts and repeated observations of one object stay
	// colocated; deletes touch exactly one shard.
	PartitionHashByID PartitionPolicy = iota
	// PartitionRoundRobin rotates over shards for perfectly even growth
	// regardless of id distribution; deletes must probe every shard.
	PartitionRoundRobin
)

func (p PartitionPolicy) name() string {
	if p == PartitionRoundRobin {
		return "round-robin"
	}
	return "hash-id"
}

// ShardedQueryStats extends QueryStats with the sharded execution profile:
// the per-shard breakdown of the aggregated counters and the number of
// cross-shard denominator merge rounds the query needed (1 = the per-shard
// certification was sufficient on the first pass). It is an alias of the
// shard engine's stats type (its embedded query.Stats is QueryStats).
type ShardedQueryStats = shard.Stats

// Sharded is a Gauss-tree partitioned across n independent shards, each its
// own core tree (and, when durable, its own page file plus write-ahead
// log) inside one directory with a shards.json manifest. Queries fan out to
// every shard concurrently and merge per-shard Bayes-denominator intervals
// by log-sum-exp, so probabilities and their certified bounds are exactly
// what a single tree over the union of the data would report. A Tree is the
// single-file one-shard case of the same implementation. It is safe for
// concurrent use by multiple goroutines; queries run against pinned
// per-shard snapshots and never block on mutations.
type Sharded struct{ index }

// NewSharded creates an empty sharded Gauss-tree with n shards for vectors
// of the given dimension. With Options.Path the index lives in a directory
// holding one durable page file and WAL per shard plus a manifest; a
// directory that already holds a sharded index is rejected (reattach with
// OpenSharded), and shard files left there by a failed or crashed create
// are reclaimed. Options.Partition selects the mutation-routing policy.
func NewSharded(dim, n int, opts ...Options) (*Sharded, error) {
	o := optionsOf(opts)
	if n <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrInvalidOptions, n)
	}
	s := new(Sharded)
	if err := s.create(dim, n, layout{path: o.Path, sharded: true}, o); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSharded reattaches a sharded Gauss-tree previously persisted in dir:
// the manifest restores the shard count and partition policy, and each
// shard's page file restores its own page size, σ-combiner and tree
// geometry. Recovery is crash-safe per shard exactly as with Open: each
// shard replays its own write-ahead-log tail over its last committed
// checkpoint. Options may tune the cache budget and probability accuracy.
func OpenSharded(dir string, opts ...Options) (*Sharded, error) {
	o := optionsOf(opts)
	o.Path = dir
	s := new(Sharded)
	if err := s.open(layout{path: dir, sharded: true}, o); err != nil {
		return nil, err
	}
	return s, nil
}
