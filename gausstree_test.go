package gausstree_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	gausstree "github.com/gauss-tree/gausstree"
)

func randomWorld(rng *rand.Rand, n, dim int) []gausstree.Vector {
	centers := make([][]float64, 6)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for j := range centers[i] {
			centers[i][j] = rng.Float64() * 100
		}
	}
	out := make([]gausstree.Vector, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		mean := make([]float64, dim)
		sigma := make([]float64, dim)
		base := rng.Float64()*1.5 + 0.05
		for j := range mean {
			sigma[j] = base * (0.7 + 0.6*rng.Float64())
			mean[j] = c[j] + rng.NormFloat64()*2
		}
		out[i] = gausstree.MustVector(uint64(i+1), mean, sigma)
	}
	return out
}

func TestPublicAPIQuickstart(t *testing.T) {
	tree, err := gausstree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.Insert(gausstree.MustVector(1, []float64{1, 2}, []float64{0.1, 0.2})); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(gausstree.MustVector(2, []float64{4, 0.5}, []float64{0.3, 0.1})); err != nil {
		t.Fatal(err)
	}
	q := gausstree.MustVector(0, []float64{1.1, 1.9}, []float64{0.2, 0.2})
	matches, err := tree.KMostLikely(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Vector.ID != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Probability < 0.99 {
		t.Errorf("probability = %v, want ≈1", matches[0].Probability)
	}
}

func TestPublicMatchesPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := randomWorld(rng, 400, 3)
	tree, err := gausstree.New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		src := vs[rng.Intn(len(vs))]
		q := gausstree.MustVector(0,
			[]float64{src.Mean[0] + 0.1, src.Mean[1] - 0.1, src.Mean[2]},
			[]float64{0.3, 0.3, 0.3})
		ps := gausstree.Posterior(gausstree.CombineAdditive, vs, q)
		bestIdx := 0
		for i := range ps {
			if ps[i] > ps[bestIdx] {
				bestIdx = i
			}
		}
		got, err := tree.KMostLikely(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Vector.ID != vs[bestIdx].ID {
			t.Errorf("trial %d: tree %d vs posterior %d", trial, got[0].Vector.ID, vs[bestIdx].ID)
		}
		if math.Abs(got[0].Probability-ps[bestIdx]) > 1e-5 {
			t.Errorf("trial %d: p %v vs %v", trial, got[0].Probability, ps[bestIdx])
		}
	}
}

func TestThresholdMatchesPosteriorProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}
	prop := func(seed int64, thresholdRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := randomWorld(rng, rng.Intn(150)+20, 2)
		tree, err := gausstree.New(2, gausstree.Options{PageSize: 1024})
		if err != nil {
			return false
		}
		defer tree.Close()
		if err := tree.BulkLoad(vs); err != nil {
			return false
		}
		src := vs[rng.Intn(len(vs))]
		q := gausstree.MustVector(0,
			[]float64{src.Mean[0] + rng.NormFloat64()*0.2, src.Mean[1] + rng.NormFloat64()*0.2},
			[]float64{0.2 + rng.Float64(), 0.2 + rng.Float64()})
		pTheta := 0.05 + float64(thresholdRaw%90)/100

		ps := gausstree.Posterior(gausstree.CombineAdditive, vs, q)
		want := map[uint64]bool{}
		for i, p := range ps {
			if p >= pTheta {
				want[vs[i].ID] = true
			}
		}
		got, err := tree.Threshold(q, pTheta)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for _, m := range got {
			if !want[m.Vector.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestProbabilitySumProperty(t *testing.T) {
	// Paper §4 property 1: the probabilities of all retrieved objects of a
	// TIQ or k-MLIQ cannot exceed 100%.
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := randomWorld(rng, rng.Intn(200)+10, 2)
		tree, err := gausstree.New(2, gausstree.Options{PageSize: 1024})
		if err != nil {
			return false
		}
		defer tree.Close()
		if err := tree.BulkLoad(vs); err != nil {
			return false
		}
		q := gausstree.MustVector(0, []float64{rng.Float64() * 100, rng.Float64() * 100},
			[]float64{0.5, 0.5})
		k := int(kRaw%10) + 1
		ms, err := tree.KMostLikely(q, k)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, m := range ms {
			if m.Probability < -1e-9 || m.Probability > 1+1e-9 {
				return false
			}
			sum += m.Probability
		}
		return sum <= 1+1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDeleteAndLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := randomWorld(rng, 300, 2)
	tree, _ := gausstree.New(2, gausstree.Options{PageSize: 1024})
	defer tree.Close()
	if _, err := tree.InsertAll(vs); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 300 {
		t.Fatalf("Len = %d", tree.Len())
	}
	ok, err := tree.Delete(vs[10])
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if tree.Len() != 299 {
		t.Errorf("Len after delete = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	seen := 0
	tree.ForEach(func(gausstree.Vector) error { seen++; return nil })
	if seen != 299 {
		t.Errorf("ForEach visited %d", seen)
	}
}

func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := randomWorld(rng, 500, 3)
	tree, _ := gausstree.New(3)
	defer tree.Close()
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				src := vs[r.Intn(len(vs))]
				q := gausstree.MustVector(0, src.Mean, src.Sigma)
				if _, err := tree.KMostLikely(q, 3); err != nil {
					errs <- err
					return
				}
				if _, err := tree.Threshold(q, 0.5); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vs := randomWorld(rng, 300, 2)
	tree, _ := gausstree.New(2, gausstree.Options{PageSize: 2048})
	defer tree.Close()
	if _, err := tree.InsertAll(vs[:200]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// One writer inserting, several readers querying concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range vs[200:] {
			if err := tree.Insert(v); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				src := vs[r.Intn(200)]
				if _, err := tree.KMostLikelyRanked(gausstree.MustVector(0, src.Mean, src.Sigma), 2); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 10))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tree.Len() != 300 {
		t.Errorf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFileBackedTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vs := randomWorld(rng, 100, 2)
	if err := tree.BulkLoad(vs); err != nil {
		t.Fatal(err)
	}
	q := gausstree.MustVector(0, vs[5].Mean, vs[5].Sigma)
	ms, err := tree.KMostLikely(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Vector.ID != vs[5].ID {
		t.Errorf("file-backed self query = %d", ms[0].Vector.ID)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistenceRoundTrip is the round-trip conformance check of the
// durable storage engine: build an index at a path, run all three query
// types, Close, Open the same path in a fresh Tree, and require
// byte-identical results plus matching geometry.
func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roundtrip.gtree")
	tree, err := gausstree.New(3, gausstree.Options{Path: path, PageSize: 2048, Combiner: gausstree.CombineConvolution})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	vs := randomWorld(rng, 400, 3)
	if err := tree.BulkLoad(vs[:300]); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.InsertAll(vs[300:]); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs[:25] {
		if ok, err := tree.Delete(v); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	}

	queries := make([]gausstree.Vector, 8)
	for i := range queries {
		src := vs[30+i*17]
		queries[i] = gausstree.MustVector(0, src.Mean, src.Sigma)
	}
	type answers struct {
		kmliq, ranked, tiq []gausstree.Match
	}
	ask := func(tr *gausstree.Tree, q gausstree.Vector) answers {
		t.Helper()
		var a answers
		var err error
		if a.kmliq, err = tr.KMostLikely(q, 5); err != nil {
			t.Fatal(err)
		}
		if a.ranked, err = tr.KMostLikelyRanked(q, 5); err != nil {
			t.Fatal(err)
		}
		if a.tiq, err = tr.Threshold(q, 0.05); err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Bit-identical float comparison that treats NaN (ranked queries carry
	// NaN probabilities) as equal to itself.
	eqF := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	sameMatches := func(kind string, a, b []gausstree.Match) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d results after reopen", kind, len(a), len(b))
		}
		for i := range a {
			identical := a[i].Vector.ID == b[i].Vector.ID &&
				eqF(a[i].LogDensity, b[i].LogDensity) &&
				eqF(a[i].Probability, b[i].Probability) &&
				eqF(a[i].ProbLow, b[i].ProbLow) &&
				eqF(a[i].ProbHigh, b[i].ProbHigh)
			if !identical {
				t.Errorf("%s result %d differs after reopen: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
	before := make([]answers, len(queries))
	for i, q := range queries {
		before[i] = ask(tree, q)
	}
	wantLen, wantDim, wantHeight := tree.Len(), tree.Dim(), tree.Height()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := gausstree.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != wantLen || re.Dim() != wantDim || re.Height() != wantHeight {
		t.Errorf("reopened Len/Dim/Height = %d/%d/%d, want %d/%d/%d",
			re.Len(), re.Dim(), re.Height(), wantLen, wantDim, wantHeight)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Errorf("reopened invariants: %v", err)
	}
	for i, q := range queries {
		after := ask(re, q)
		sameMatches("k-MLIQ", before[i].kmliq, after.kmliq)
		sameMatches("ranked", before[i].ranked, after.ranked)
		sameMatches("TIQ", before[i].tiq, after.tiq)
	}
	if err := re.Sync(); err != nil {
		t.Errorf("Sync on reopened tree: %v", err)
	}
}

// TestNewRejectsExistingIndex: New must never clobber a persisted index.
func TestNewRejectsExistingIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.gtree")
	tree, err := gausstree.New(2, gausstree.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(gausstree.MustVector(1, []float64{1, 2}, []float64{0.1, 0.1})); err != nil {
		t.Fatal(err)
	}
	tree.Close()
	if _, err := gausstree.New(2, gausstree.Options{Path: path}); err == nil {
		t.Fatal("New over an existing index should be rejected")
	}
	// The original index is untouched and still opens.
	re, err := gausstree.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("index damaged by rejected New: Len = %d", re.Len())
	}
}

// TestNewFailureLeavesNoDebris: a New that fails after creating its page
// file must remove it again, so a retry at the same path succeeds instead
// of being refused as an existing index.
func TestNewFailureLeavesNoDebris(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retry.gtree")
	if err := os.Mkdir(path+".wal", 0o755); err != nil {
		t.Fatal(err)
	}
	if tree, err := gausstree.New(2, gausstree.Options{Path: path}); err == nil {
		tree.Close()
		t.Fatal("New with a directory at the WAL path succeeded")
	}
	if err := os.Remove(path + ".wal"); err != nil {
		t.Fatal(err)
	}
	tree, err := gausstree.New(2, gausstree.Options{Path: path})
	if err != nil {
		t.Fatalf("retry after a failed New: %v", err)
	}
	v := gausstree.MustVector(1, []float64{1, 2}, []float64{0.1, 0.1})
	if err := tree.Insert(v); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := gausstree.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1", re.Len())
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := gausstree.Open(filepath.Join(t.TempDir(), "nope.gtree")); err == nil {
		t.Error("opening a missing index should fail")
	}
}

func TestClosedTreeOperations(t *testing.T) {
	tree, _ := gausstree.New(2)
	tree.Close()
	v := gausstree.MustVector(1, []float64{1, 1}, []float64{1, 1})
	if err := tree.Insert(v); err != gausstree.ErrClosed {
		t.Errorf("Insert after close: %v", err)
	}
	if _, err := tree.KMostLikely(v, 1); err != gausstree.ErrClosed {
		t.Errorf("query after close: %v", err)
	}
	if _, err := tree.Delete(v); err != gausstree.ErrClosed {
		t.Errorf("delete after close: %v", err)
	}
	if _, err := tree.Stats(); err != gausstree.ErrClosed {
		t.Errorf("Stats after close: %v", err)
	}
	if err := tree.ResetStats(); err != gausstree.ErrClosed {
		t.Errorf("ResetStats after close: %v", err)
	}
	if err := tree.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRankedVsRefinedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vs := randomWorld(rng, 600, 3)
	tree, _ := gausstree.New(3)
	defer tree.Close()
	tree.BulkLoad(vs)
	for trial := 0; trial < 10; trial++ {
		src := vs[rng.Intn(len(vs))]
		q := gausstree.MustVector(0, src.Mean, src.Sigma)
		ranked, err := tree.KMostLikelyRanked(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := tree.KMostLikely(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		rankedIDs := ids(ranked)
		refinedIDs := ids(refined)
		sort.Slice(rankedIDs, func(a, b int) bool { return rankedIDs[a] < rankedIDs[b] })
		sort.Slice(refinedIDs, func(a, b int) bool { return refinedIDs[a] < refinedIDs[b] })
		for i := range rankedIDs {
			if rankedIDs[i] != refinedIDs[i] {
				t.Fatalf("trial %d: ranked set %v vs refined set %v", trial, rankedIDs, refinedIDs)
			}
		}
		if !math.IsNaN(ranked[0].Probability) {
			t.Error("ranked matches should carry NaN probabilities")
		}
	}
}

func ids(ms []gausstree.Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.Vector.ID
	}
	return out
}
