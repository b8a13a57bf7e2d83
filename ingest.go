package gausstree

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/shard"
)

// IngestOptions switch an index, a Tree or a Sharded, into online
// merge-ingest mode (FROSS-style continuous ingestion): instead of letting a stream of repeated
// observations grow the tree without bound, Insert first probes for the
// most likely already-stored Gaussian and, when it is within MergeDistance,
// folds the new observation into it by moment matching — the stored object
// keeps its id, its mean moves toward the observation and its σ absorbs
// both measurement spreads, weighted by how many observations were merged
// so far. Observations with no near-duplicate insert normally.
//
// This keeps the index size proportional to the number of distinct objects
// rather than the number of observations, which is what makes a sustained
// sensor feed (see examples/sensornet) indexable at all.
type IngestOptions struct {
	// MergeDistance is the merge threshold on the normalized Mahalanobis
	// distance d between an observation and its most likely stored
	// Gaussian, d² = mean over dimensions of (μ₁ᵢ−μ₂ᵢ)²/(σ₁ᵢ²+σ₂ᵢ²).
	// d ≤ MergeDistance merges; larger inserts. Must be > 0. A value
	// around 1–3 merges observations that are statistically
	// indistinguishable given both uncertainties.
	MergeDistance float64
	// TTL, when > 0, marks stored objects whose last observation is older
	// than TTL as expired; SweepExpired deletes them. Zero disables decay.
	TTL time.Duration
}

// IngestStats are cumulative counters of merge-ingest mode; see
// Tree.IngestStats and Sharded.IngestStats.
type IngestStats struct {
	// Inserted counts observations stored as new objects.
	Inserted uint64
	// Merged counts observations folded into an existing Gaussian.
	Merged uint64
	// Swept counts objects removed by SweepExpired TTL decay.
	Swept uint64
}

// ingestEntry is the in-memory bookkeeping of one stored object in
// merge-ingest mode: its current stored parameters (needed to Replace and
// Delete by exact vector), the number of observations merged into it, and
// the last observation time for TTL decay.
type ingestEntry struct {
	vec    Vector
	weight float64
	seen   time.Time
}

// ingester implements merge-or-insert over every shard of an index. All its
// state is guarded by the owning index's writer mutex — every method is
// called with it held.
type ingester struct {
	opts    IngestOptions
	entries map[uint64]*ingestEntry
	stats   IngestStats
}

// newIngester validates the merge-ingest options; nil options mean no
// merge-ingest mode and yield a nil ingester.
func newIngester(o *IngestOptions) (*ingester, error) {
	if o == nil {
		return nil, nil
	}
	opts := *o
	if !(opts.MergeDistance > 0) || math.IsInf(opts.MergeDistance, 0) {
		return nil, fmt.Errorf("%w: IngestOptions.MergeDistance must be a positive finite number, got %v", ErrInvalidOptions, opts.MergeDistance)
	}
	if opts.TTL < 0 {
		return nil, fmt.Errorf("%w: IngestOptions.TTL must be >= 0, got %v", ErrInvalidOptions, opts.TTL)
	}
	return &ingester{opts: opts, entries: make(map[uint64]*ingestEntry)}, nil
}

// seed rebuilds the bookkeeping from the stored vectors (after Open or
// BulkLoad). Pre-existing objects start with weight 1 — their merge history
// is not persisted — and a fresh TTL clock.
func (g *ingester) seed(eng *shard.Engine) error {
	now := time.Now()
	g.entries = make(map[uint64]*ingestEntry, eng.Len())
	return eng.ForEach(func(v pfv.Vector) error {
		g.entries[v.ID] = &ingestEntry{vec: v, weight: 1, seen: now}
		return nil
	})
}

// insert merges v into its most likely stored near-duplicate or inserts it.
// The context bounds the near-duplicate probe (a k=1 likelihood query across
// all shards); the mutation itself is not cancellable once it starts.
func (g *ingester) insert(ctx context.Context, eng *shard.Engine, v Vector) error {
	res, _, err := eng.KMLIQRanked(ctx, v, 1)
	if err != nil {
		return err
	}
	if len(res) == 1 {
		stored := res[0].Vector
		if normMahalanobisSq(stored, v) <= g.opts.MergeDistance*g.opts.MergeDistance {
			return g.merge(eng, stored, v)
		}
	}
	if err := eng.Insert(v); err != nil {
		return err
	}
	// Merge-ingest treats ids as object identities: a re-used id rebinds
	// the bookkeeping to the latest stored copy.
	g.entries[v.ID] = &ingestEntry{vec: v, weight: 1, seen: time.Now()}
	g.stats.Inserted++
	return nil
}

// merge folds observation obs into the stored Gaussian and replaces it
// in-place on its owning shard (one logged, snapshot-published mutation).
func (g *ingester) merge(eng *shard.Engine, stored, obs Vector) error {
	e := g.entries[stored.ID]
	if e == nil {
		// Stored object predates this ingester's view (shouldn't happen
		// after seed, but tolerate): adopt it with weight 1.
		e = &ingestEntry{vec: stored, weight: 1}
		g.entries[stored.ID] = e
	}
	merged, err := mergeGaussians(stored, obs, e.weight)
	if err != nil {
		return err
	}
	ok, err := eng.Replace(stored, merged)
	if err != nil {
		return err
	}
	if !ok {
		// The probed vector is gone (stale bookkeeping); store the
		// observation as a fresh object instead.
		if err := eng.Insert(obs); err != nil {
			return err
		}
		g.entries[obs.ID] = &ingestEntry{vec: obs, weight: 1, seen: time.Now()}
		g.stats.Inserted++
		return nil
	}
	e.vec = merged
	e.weight++
	e.seen = time.Now()
	g.stats.Merged++
	return nil
}

// forget drops the bookkeeping of a deleted object.
func (g *ingester) forget(id uint64) {
	delete(g.entries, id)
}

// normMahalanobisSq is the squared normalized Mahalanobis distance between
// two probabilistic feature vectors: the mean over dimensions of
// (μ₁ᵢ−μ₂ᵢ)²/(σ₁ᵢ²+σ₂ᵢ²). Dividing by the summed variances makes the
// threshold a unitless "how many combined standard deviations apart"
// measure; the mean (not sum) over dimensions keeps one threshold value
// meaningful across dimensionalities.
func normMahalanobisSq(a, b Vector) float64 {
	dim := a.Dim()
	var sum float64
	for i := 0; i < dim; i++ {
		d := a.Mean[i] - b.Mean[i]
		sum += d * d / (a.Sigma[i]*a.Sigma[i] + b.Sigma[i]*b.Sigma[i])
	}
	return sum / float64(dim)
}

// mergeGaussians moment-matches the mixture of a stored Gaussian carrying
// weight w and one new observation (weight 1): the merged Gaussian has the
// mixture's exact mean and variance,
//
//	μ = (w·μs + μn) / (w+1)
//	σ² = (w·(σs²+μs²) + (σn²+μn²)) / (w+1) − μ²
//
// per dimension. The variance absorbs both the component spreads and the
// distance between the means, so repeated merging never understates
// uncertainty. The stored id is kept.
func mergeGaussians(stored, obs Vector, w float64) (Vector, error) {
	dim := stored.Dim()
	wTot := w + 1
	mean := make([]float64, dim)
	sigma := make([]float64, dim)
	for i := 0; i < dim; i++ {
		ms, mn := stored.Mean[i], obs.Mean[i]
		vs := stored.Sigma[i] * stored.Sigma[i]
		vn := obs.Sigma[i] * obs.Sigma[i]
		mu := (w*ms + mn) / wTot
		v := (w*(vs+ms*ms)+(vn+mn*mn))/wTot - mu*mu
		if !(v > 0) {
			// Guard against floating-point cancellation when both
			// components nearly coincide: fall back to the tighter of the
			// two component variances.
			v = math.Min(vs, vn)
		}
		mean[i] = mu
		sigma[i] = math.Sqrt(v)
	}
	return pfv.New(stored.ID, mean, sigma)
}

// SweepExpired removes every stored object whose last observation is older
// than IngestOptions.TTL and returns how many were removed. It is a no-op
// (0, nil) when the index is not in merge-ingest mode or TTL is 0. Like all
// mutations it runs under the writer lock without blocking readers, and
// returns once the deletions are durable.
func (x *index) SweepExpired() (int, error) {
	st, err := x.lockedState()
	if err != nil {
		return 0, err
	}
	if x.ing == nil || x.ing.opts.TTL <= 0 {
		x.mu.Unlock()
		return 0, nil
	}
	cutoff := time.Now().Add(-x.ing.opts.TTL)
	removed := 0
	for id, e := range x.ing.entries {
		if !e.seen.Before(cutoff) {
			continue
		}
		var found bool
		found, err = st.eng.Delete(e.vec)
		if err != nil {
			break
		}
		delete(x.ing.entries, id)
		if found {
			removed++
			x.ing.stats.Swept++
		}
	}
	x.mu.Unlock()
	if err != nil {
		return removed, err
	}
	return removed, x.waitDurable(st)
}

// IngestStats reports the cumulative merge-ingest counters; ok is false
// when the index is not in merge-ingest mode.
func (x *index) IngestStats() (stats IngestStats, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ing == nil {
		return IngestStats{}, false
	}
	return x.ing.stats, true
}
