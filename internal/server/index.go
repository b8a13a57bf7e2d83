package server

import (
	"context"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/query"
)

// Index is the uniform index surface the daemon serves. Both public index
// types satisfy it through the one adapter that TreeIndex and ShardedIndex
// construct, so every handler, the admission controller and the batch
// executor are written once, engine-agnostically — exactly how the
// query.Engine interface already unifies the in-process backends one layer
// below.
//
// The query methods certify probabilities to the index's configured
// Options.Accuracy; the serving layer adds deadlines on top via ctx.
type Index interface {
	// Kind names the backend ("tree" or "sharded") for /v1/stats.
	Kind() string
	// LeafFormat names the on-page leaf encoding ("exact", "float32",
	// "grid8", "legacy-row") for /v1/stats.
	LeafFormat() string
	// Dim returns the feature dimensionality of the index.
	Dim() int
	// Len returns the number of stored vectors.
	Len() int
	// KMLIQ answers a k-most-likely identification query with certified
	// probabilities.
	KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error)
	// KMLIQRanked answers a k-MLIQ without probability values (NaN fields).
	KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error)
	// TIQ answers a threshold identification query.
	TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error)
	// Insert durably adds one vector (non-blocking for concurrent reads:
	// acknowledged once its WAL record is group-committed).
	Insert(v gausstree.Vector) error
	// InsertAll durably adds a batch of vectors and returns how many are
	// durably applied (len(vs) on success; a durable subset on error).
	InsertAll(vs []gausstree.Vector) (int, error)
	// Delete removes one exactly-matching stored copy.
	Delete(v gausstree.Vector) (bool, error)
	// IOStats reports the page manager's I/O counters.
	IOStats() (pagefile.Stats, error)
	// WALStats reports the group-commit write-ahead-log counters; ok is
	// false for memory-backed indexes (no WAL).
	WALStats() (ws gausstree.WALStats, ok bool)
	// SnapshotEpoch is the monotone count of committed mutations (the
	// published snapshot's reclamation epoch; summed across shards).
	SnapshotEpoch() uint64
	// PinnedReaders is the number of snapshot readers currently pinning a
	// reclamation epoch (summed across shards).
	PinnedReaders() int
	// OldestPinnedEpoch is the oldest epoch a pinned reader still observes
	// (summed across shards, matching SnapshotEpoch's convention); the gap
	// SnapshotEpoch−OldestPinnedEpoch is the total reclamation lag.
	OldestPinnedEpoch() uint64
	// LimboPages is the number of freed pages awaiting epoch reclamation.
	LimboPages() int
	// IngestStats reports the online merge-ingest counters; ok is false
	// when the index is not in merge-ingest mode (Options.Ingest).
	IngestStats() (is gausstree.IngestStats, ok bool)
	// Scrub verifies every reachable page and the write-ahead log's durable
	// prefix against bit rot and structural damage, rate-limited to
	// pagesPerSecond (0 = unthrottled); see gausstree.Tree.Scrub.
	Scrub(ctx context.Context, pagesPerSecond int) (gausstree.ScrubReport, error)
	// Quarantine makes the index permanently write-inert without closing it
	// (reads keep serving the last committed snapshot), so a fresh index can
	// be opened over the same files; see gausstree.Tree.Quarantine.
	Quarantine(cause error)
	// Sync flushes written pages to stable storage.
	Sync() error
	// Close releases the index.
	Close() error
}

// TreeIndex adapts a Gauss-tree, the single-file one-shard index, to the
// serving surface.
func TreeIndex(t *gausstree.Tree) Index {
	return facadeIndex[gausstree.QueryStats]{t, "tree", func(st gausstree.QueryStats) gausstree.QueryStats { return st }}
}

// ShardedIndex adapts a sharded Gauss-tree to the serving surface; the
// per-shard statistic breakdown is collapsed into the aggregate QueryStats
// (the wire format reports the aggregate).
func ShardedIndex(s *gausstree.Sharded) Index {
	return facadeIndex[gausstree.ShardedQueryStats]{s, "sharded", func(st gausstree.ShardedQueryStats) gausstree.QueryStats { return st.Stats }}
}

// facade is the public index API both gausstree.Tree and gausstree.Sharded
// provide; S is the statistics type of their context-aware queries. The
// methods whose signatures already match Index are promoted to the adapter
// unchanged.
type facade[S any] interface {
	LeafFormat() gausstree.LeafFormat
	Dim() int
	Len() int
	KMLIQContext(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, S, error)
	KMLIQRankedContext(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, S, error)
	TIQContext(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, S, error)
	Insert(v gausstree.Vector) error
	InsertAll(vs []gausstree.Vector) (int, error)
	Delete(v gausstree.Vector) (bool, error)
	Stats() (pagefile.Stats, error)
	WALStats() (gausstree.WALStats, bool)
	SnapshotEpoch() uint64
	PinnedReaders() int
	OldestPinnedEpoch() uint64
	LimboPages() int
	IngestStats() (gausstree.IngestStats, bool)
	Scrub(ctx context.Context, opts gausstree.ScrubOptions) (gausstree.ScrubReport, error)
	Quarantine(cause error)
	Sync() error
	Close() error
}

// facadeIndex adapts either public index type to the serving surface.
type facadeIndex[S any] struct {
	facade[S]
	kind  string
	stats func(S) gausstree.QueryStats
}

func (i facadeIndex[S]) Kind() string                     { return i.kind }
func (i facadeIndex[S]) LeafFormat() string               { return i.facade.LeafFormat().String() }
func (i facadeIndex[S]) IOStats() (pagefile.Stats, error) { return i.Stats() }
func (i facadeIndex[S]) KMLIQ(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	ms, st, err := i.KMLIQContext(ctx, q, k)
	return ms, i.stats(st), err
}
func (i facadeIndex[S]) KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]gausstree.Match, gausstree.QueryStats, error) {
	ms, st, err := i.KMLIQRankedContext(ctx, q, k)
	return ms, i.stats(st), err
}
func (i facadeIndex[S]) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64) ([]gausstree.Match, gausstree.QueryStats, error) {
	ms, st, err := i.TIQContext(ctx, q, pTheta)
	return ms, i.stats(st), err
}
func (i facadeIndex[S]) Scrub(ctx context.Context, pps int) (gausstree.ScrubReport, error) {
	return i.facade.Scrub(ctx, gausstree.ScrubOptions{PagesPerSecond: pps})
}

// indexEngine adapts the serving surface back onto query.Engine, which lets
// the batch endpoint reuse query.BatchExecutor's worker pool unchanged. The
// accuracy parameter is ignored: the served index certifies to its own
// configured accuracy, uniformly for single and batched queries. It holds
// the server, not an Index, so batch queries follow a recovery swap like
// every other endpoint.
type indexEngine struct{ s *Server }

var _ query.Engine = indexEngine{}

func (e indexEngine) Name() string { return "served-" + e.s.index().Kind() }

func (e indexEngine) KMLIQ(ctx context.Context, q gausstree.Vector, k int, _ float64) ([]query.Result, query.Stats, error) {
	ms, st, err := e.s.index().KMLIQ(ctx, q, k)
	return toResults(ms), st, err
}

func (e indexEngine) KMLIQRanked(ctx context.Context, q gausstree.Vector, k int) ([]query.Result, query.Stats, error) {
	ms, st, err := e.s.index().KMLIQRanked(ctx, q, k)
	return toResults(ms), st, err
}

func (e indexEngine) TIQ(ctx context.Context, q gausstree.Vector, pTheta float64, _ float64) ([]query.Result, query.Stats, error) {
	ms, st, err := e.s.index().TIQ(ctx, q, pTheta)
	return toResults(ms), st, err
}

func toResults(ms []gausstree.Match) []query.Result {
	out := make([]query.Result, len(ms))
	for i, m := range ms {
		out[i] = query.Result{
			Vector:      m.Vector,
			LogDensity:  m.LogDensity,
			Probability: m.Probability,
			ProbLow:     m.ProbLow,
			ProbHigh:    m.ProbHigh,
		}
	}
	return out
}

func toMatches(rs []query.Result) []gausstree.Match {
	out := make([]gausstree.Match, len(rs))
	for i, r := range rs {
		out[i] = gausstree.Match{
			Vector:      r.Vector,
			LogDensity:  r.LogDensity,
			Probability: r.Probability,
			ProbLow:     r.ProbLow,
			ProbHigh:    r.ProbHigh,
		}
	}
	return out
}
