package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/dataset"
)

const (
	// k is the answer size of every k-MLIQ the benchmark sends.
	k = 3
	// pTheta is the TIQ threshold.
	pTheta = 0.8
	// accuracy is the library's default certified-interval width; a TIQ
	// object whose exact posterior lies within it of the threshold may go
	// either way.
	accuracy = 1e-6
	// probSlack absorbs floating-point rounding between the engine's
	// certified bounds and the oracle's independently summed posterior.
	probSlack = 1e-10
	// freshIDBase is the first id of vectors inserted during a run; it lies
	// above every generated database id.
	freshIDBase = 1_000_000_000
	// batchSize is the number of vectors per insert request.
	batchSize = 8
)

// request is one query of the workload's pool.
type request struct {
	q   gausstree.Vector
	tiq bool // TIQ(pTheta) when true, certified k-MLIQ otherwise
}

// inputs are everything a run derives from its seed.
type inputs struct {
	ds   *dataset.Dataset
	pool []request
	// freshSeed seeds the stream of vectors inserted during the run.
	freshSeed int64
}

// makeInputs builds the paper's data set 2 — n vectors of the DS2-style
// generator with its own fixed seed — and, from seed, a pool of queries
// re-observing random stored objects, alternately certified k-MLIQ and
// TIQ. The database does not depend on seed: between DS2 instances drawn
// with different seeds pages/query differs by several percent, which would
// hide a change in the engine, while the request stream is what a workload
// seed should vary.
func makeInputs(n, poolSize int, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	p := dataset.DefaultSyntheticParams()
	p.N = n
	ds, err := dataset.Synthetic(p)
	if err != nil {
		return nil, err
	}
	qs, err := dataset.MakeQueries(ds, dataset.QueryParams{Count: poolSize, Sigma: p.Sigma, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	in := &inputs{ds: ds, pool: make([]request, poolSize)}
	for i, q := range qs {
		in.pool[i] = request{q: q.Vector, tiq: i%2 == 1}
	}
	in.freshSeed = rng.Int63()
	return in, nil
}

// vector returns the stored database vector with the given id, if any.
func (in *inputs) vector(id uint64) (gausstree.Vector, bool) {
	if id == 0 || id > uint64(len(in.ds.Vectors)) {
		return gausstree.Vector{}, false
	}
	return in.ds.Vectors[id-1], true
}

// freshStream generates the vectors inserted during a run: each re-observes
// a random stored object (its mean drawn from the object's own Gaussian) and
// carries a new id, so the stream is deterministic for a seed.
type freshStream struct {
	in     *inputs
	rng    *rand.Rand
	nextID uint64
}

func newFreshStream(in *inputs) *freshStream {
	return &freshStream{in: in, rng: rand.New(rand.NewSource(in.freshSeed)), nextID: freshIDBase}
}

// batch returns the next n fresh vectors.
func (f *freshStream) batch(n int) []gausstree.Vector {
	out := make([]gausstree.Vector, n)
	for i := range out {
		src := f.in.ds.Vectors[f.rng.Intn(len(f.in.ds.Vectors))]
		mean := make([]float64, len(src.Mean))
		for j := range mean {
			mean[j] = src.Mean[j] + f.rng.NormFloat64()*src.Sigma[j]
		}
		out[i] = gausstree.MustVector(f.nextID, mean, append([]float64(nil), src.Sigma...))
		f.nextID++
	}
	return out
}

// scored is one database object with its exact joint log density and
// posterior for a query.
type scored struct {
	id uint64
	ld float64
	p  float64
}

// truth is the exact answer to one pool query, computed by a sequential scan.
type truth struct {
	top   []scored // the k most likely objects, most likely first
	above []scored // every object with posterior ≥ pTheta − accuracy
	logZ  float64  // ln Σ p(q|v): P(v|q) = exp(ld(v) − logZ)
}

// buildOracle computes the exact answers of the pool with
// gausstree.Posterior, using two workers.
func buildOracle(in *inputs) []truth {
	out := make([]truth, len(in.pool))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in.pool); i += workers {
				out[i] = exactAnswer(in.ds.Vectors, in.pool[i].q)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// exactAnswer scans db for the exact answers to q.
func exactAnswer(db []gausstree.Vector, q gausstree.Vector) truth {
	post := gausstree.Posterior(gausstree.CombineAdditive, db, q)
	idx := make([]int, 0, k)
	var t truth
	for i, p := range post {
		if p >= pTheta-accuracy {
			t.above = append(t.above, scored{id: db[i].ID, p: p})
		}
		// Keep the k best by posterior (ties broken by position).
		if len(idx) < k || p > post[idx[len(idx)-1]] {
			if len(idx) == k {
				idx = idx[:k-1]
			}
			j := sort.Search(len(idx), func(j int) bool { return post[idx[j]] < p })
			idx = append(idx, 0)
			copy(idx[j+1:], idx[j:])
			idx[j] = i
		}
	}
	for _, i := range idx {
		ld := gausstree.JointLogDensity(gausstree.CombineAdditive, db[i], q)
		t.top = append(t.top, scored{id: db[i].ID, ld: ld, p: post[i]})
	}
	if len(t.top) > 0 {
		t.logZ = t.top[0].ld - math.Log(t.top[0].p)
	}
	return t
}

// checkAnswer compares one served or embedded answer with the exact one and
// returns a description of every discrepancy (none for a correct answer).
func checkAnswer(in *inputs, r request, t truth, ms []gausstree.Match) []string {
	if r.tiq {
		return checkTIQ(in, r, t, ms)
	}
	return checkKMLIQ(in, r, t, ms)
}

// checkKMLIQ: ranked ids match the exact top k modulo exact ties, and every
// certified interval contains the exact posterior.
func checkKMLIQ(in *inputs, r request, t truth, ms []gausstree.Match) []string {
	var bad []string
	if len(ms) != len(t.top) {
		return []string{fmt.Sprintf("k-MLIQ returned %d matches, want %d", len(ms), len(t.top))}
	}
	for i, m := range ms {
		want := t.top[i]
		v, ok := in.vector(m.Vector.ID)
		if !ok || !v.Equal(m.Vector) {
			bad = append(bad, fmt.Sprintf("rank %d: id %d is not a stored vector", i, m.Vector.ID))
			continue
		}
		if m.Vector.ID != want.id && gausstree.JointLogDensity(gausstree.CombineAdditive, v, r.q) != want.ld {
			bad = append(bad, fmt.Sprintf("rank %d: id %d, want id %d", i, m.Vector.ID, want.id))
			continue
		}
		if !(m.ProbLow-probSlack <= want.p && want.p <= m.ProbHigh+probSlack) {
			bad = append(bad, fmt.Sprintf("rank %d id %d: certified [%.12g, %.12g] misses exact posterior %.12g",
				i, m.Vector.ID, m.ProbLow, m.ProbHigh, want.p))
		}
	}
	return bad
}

// checkTIQ: the answer holds every object whose exact posterior clears
// pTheta by more than the accuracy and none that misses it by more, and every
// certified interval contains the exact posterior.
func checkTIQ(in *inputs, r request, t truth, ms []gausstree.Match) []string {
	var bad []string
	got := make(map[uint64]bool, len(ms))
	for _, m := range ms {
		got[m.Vector.ID] = true
		v, ok := in.vector(m.Vector.ID)
		if !ok || !v.Equal(m.Vector) {
			bad = append(bad, fmt.Sprintf("TIQ: id %d is not a stored vector", m.Vector.ID))
			continue
		}
		p := math.Exp(gausstree.JointLogDensity(gausstree.CombineAdditive, v, r.q) - t.logZ)
		for _, a := range t.above {
			if a.id == m.Vector.ID {
				p = a.p
			}
		}
		if p < pTheta-accuracy {
			bad = append(bad, fmt.Sprintf("TIQ: id %d returned with exact posterior %.12g < %v", m.Vector.ID, p, pTheta))
		}
		if !(m.ProbLow-probSlack <= p && p <= m.ProbHigh+probSlack) {
			bad = append(bad, fmt.Sprintf("TIQ id %d: certified [%.12g, %.12g] misses exact posterior %.12g",
				m.Vector.ID, m.ProbLow, m.ProbHigh, p))
		}
	}
	for _, a := range t.above {
		if a.p >= pTheta+accuracy && !got[a.id] {
			bad = append(bad, fmt.Sprintf("TIQ: id %d with exact posterior %.12g missing", a.id, a.p))
		}
	}
	return bad
}

// checkShape is the check for reads under concurrent writes, whose exact
// answer moves while they run: k matches, ranked by density, with ordered
// certified bounds inside [0, 1].
func checkShape(ms []gausstree.Match) []string {
	if len(ms) != k {
		return []string{fmt.Sprintf("k-MLIQ returned %d matches, want %d", len(ms), k)}
	}
	var bad []string
	for i, m := range ms {
		if !(m.ProbLow <= m.ProbHigh && m.ProbLow >= -probSlack && m.ProbHigh <= 1+probSlack) {
			bad = append(bad, fmt.Sprintf("rank %d id %d: malformed interval [%g, %g]", i, m.Vector.ID, m.ProbLow, m.ProbHigh))
		}
		if i > 0 && m.LogDensity > ms[i-1].LogDensity {
			bad = append(bad, fmt.Sprintf("rank %d id %d: density above rank %d", i, m.Vector.ID, i-1))
		}
	}
	return bad
}
