package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/gauss-tree/gausstree"
)

// tinyConfig shrinks a run so that every workload finishes in about a
// second: 2,000 vectors and a cold cache of about a ninth of the index.
func tinyConfig(t *testing.T, name string, seed int64, trace bool) config {
	cfg := defaultConfig(name, seed, 300*time.Millisecond, trace, t.TempDir())
	cfg.n, cfg.pool, cfg.setupReps, cfg.replay, cfg.coldCache = 2000, 32, 2, 16, 40<<10
	return cfg
}

func names(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

// TestMetricTablesMatchBenchmarkJSON: the metrics the program emits are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		got   []struct{ Name, Unit string }
		want  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.got {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, names(c.want)) {
			t.Errorf("%s in BENCHMARK.json %v, program emits %v", c.label, got, names(c.want))
		}
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if !reflect.DeepEqual(declared, known) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", declared, known)
	}
}

// TestTinyRunsEmitEveryMetric runs every workload in both modes at tiny
// size: each run is correct and emits every metric of its mode with its
// unit, and another seed gives the same metric names.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := names(endToEnd)
			if trace {
				want = names(perLayer)
			}
			for _, seed := range []int64{1, 2} {
				res, err := run(tinyConfig(t, name, seed, trace))
				if err != nil {
					t.Fatalf("%s trace=%v seed %d: %v", name, trace, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace=%v seed %d: correct=%v failed=%d attempted=%d",
						name, trace, seed, res.Correct, res.Failed, res.Attempted)
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s trace=%v seed %d: metrics %v, want %v", name, trace, seed, got, want)
				}
			}
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs, another
// seed other queries and other inserted vectors over the same database.
func TestSeedDeterminesInputs(t *testing.T) {
	a, err := makeInputs(500, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(500, 16, 1)
	c, _ := makeInputs(500, 16, 2)
	if !reflect.DeepEqual(a.ds.Vectors, b.ds.Vectors) || !reflect.DeepEqual(a.pool, b.pool) ||
		!reflect.DeepEqual(newFreshStream(a).batch(4), newFreshStream(b).batch(4)) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(newFreshStream(a).batch(4), newFreshStream(c).batch(4)) {
		t.Error("another seed gave the same requests")
	}
}

// TestOracleRejectsPerturbedAnswers: engine answers pass the oracle, and
// each kind of wrong answer fails it.
func TestOracleRejectsPerturbedAnswers(t *testing.T) {
	in, err := makeInputs(2000, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := buildOracle(in)
	tr, err := gausstree.New(in.ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.BulkLoad(in.ds.Vectors); err != nil {
		t.Fatal(err)
	}
	r := &rig{tree: tr}
	ctx := context.Background()
	var kmliq, tiq int = -1, -1
	for i, req := range in.pool {
		ms, _, err := r.query(ctx, req, false)
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkAnswer(in, req, oracle[i], ms); len(bad) > 0 {
			t.Fatalf("query %d: correct answer rejected: %v", i, bad)
		}
		switch {
		case !req.tiq && kmliq < 0:
			kmliq = i
		case req.tiq && tiq < 0 && len(ms) > 0:
			tiq = i
		}
	}
	if kmliq < 0 || tiq < 0 {
		t.Fatal("pool lacks a k-MLIQ or a non-empty TIQ")
	}

	answer := func(i int) []gausstree.Match {
		ms, _, err := r.query(ctx, in.pool[i], false)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	far := in.ds.Vectors[0]
	if far.ID == answer(kmliq)[0].Vector.ID || far.ID == answer(tiq)[0].Vector.ID {
		far = in.ds.Vectors[1]
	}
	perturb := map[string]struct {
		i int
		f func([]gausstree.Match) []gausstree.Match
	}{
		"k-MLIQ wrong id":  {kmliq, func(ms []gausstree.Match) []gausstree.Match { ms[0].Vector = far; return ms }},
		"k-MLIQ swapped":   {kmliq, func(ms []gausstree.Match) []gausstree.Match { ms[0], ms[1] = ms[1], ms[0]; return ms }},
		"k-MLIQ too short": {kmliq, func(ms []gausstree.Match) []gausstree.Match { return ms[:k-1] }},
		"k-MLIQ interval": {kmliq, func(ms []gausstree.Match) []gausstree.Match {
			ms[0].ProbLow, ms[0].ProbHigh = ms[0].ProbHigh+1e-3, ms[0].ProbHigh+2e-3
			return ms
		}},
		"k-MLIQ vector": {kmliq, func(ms []gausstree.Match) []gausstree.Match {
			ms[0].Vector = ms[0].Vector.Clone()
			ms[0].Vector.Mean[0] += 1
			return ms
		}},
		"TIQ dropped": {tiq, func(ms []gausstree.Match) []gausstree.Match { return ms[1:] }},
		"TIQ extra": {tiq, func(ms []gausstree.Match) []gausstree.Match {
			return append(ms, gausstree.Match{Vector: far, ProbLow: 0, ProbHigh: 1})
		}},
		"TIQ interval": {tiq, func(ms []gausstree.Match) []gausstree.Match {
			ms[0].ProbLow, ms[0].ProbHigh = 0, ms[0].ProbLow/2
			return ms
		}},
	}
	for name, p := range perturb {
		if bad := checkAnswer(in, in.pool[p.i], oracle[p.i], p.f(answer(p.i))); len(bad) == 0 {
			t.Errorf("%s: perturbed answer accepted", name)
		}
	}
}

// TestDurabilityRejectsDroppedVector: the durability check passes when every
// acknowledged vector is present and counts one that went missing.
func TestDurabilityRejectsDroppedVector(t *testing.T) {
	in, err := makeInputs(500, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []workload{{}, {shards: 2}} {
		path := filepath.Join(t.TempDir(), "index")
		r, err := buildRig(w, 0, path, in.ds.Vectors, in.ds.Dim)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.open(); err != nil {
			t.Fatal(err)
		}
		acked, err := r.insert(context.Background(), newFreshStream(in).batch(batchSize), false)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		if missing, err := checkDurable(w, path, acked); missing != 0 || err != nil {
			t.Fatalf("shards=%d: intact index: %d missing, %v", w.shards, missing, err)
		}

		// Lose one acknowledged vector behind the check's back.
		if err := r.open(); err != nil {
			t.Fatal(err)
		}
		var found bool
		if r.sh != nil {
			found, err = r.sh.Delete(acked[3])
		} else {
			found, err = r.tree.Delete(acked[3])
		}
		if !found || err != nil {
			t.Fatalf("deleting an acknowledged vector: found=%v err=%v", found, err)
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		if missing, err := checkDurable(w, path, acked); missing != 1 || err != nil {
			t.Errorf("shards=%d: dropped vector: %d missing (want 1), %v", w.shards, missing, err)
		}
	}
}

// TestSummarizeTail: the tail percentile falls back from p99 so that ten
// samples always lie beyond it; median and mean are exact.
func TestSummarizeTail(t *testing.T) {
	lat := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		n    int
		tail float64
	}{{2000, 1980}, {1000, 990}, {400, 390}, {50, 40}, {5, 1}} {
		s := summarize(lat(c.n))
		if s.tail != c.tail || s.p50 != float64((c.n+1)/2) || s.mean != float64(c.n+1)/2 {
			t.Errorf("n=%d: p50 %v mean %v tail %v, want %v, %v and %v",
				c.n, s.p50, s.mean, s.tail, float64((c.n+1)/2), float64(c.n+1)/2, c.tail)
		}
	}
}

// TestSlicedMedian: a slow burst confined to one of the parts of a phase
// moves neither the median latency, the tail nor the rate.
func TestSlicedMedian(t *testing.T) {
	l := &loop{}
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i >= 2000 {
			d = 10 * time.Millisecond // the last part is slow
		}
		l.lat = append(l.lat, d)
		l.at = append(l.at, time.Duration(i+1)*time.Millisecond)
	}
	s, rate := sliced(l, 3, 8)
	if s.p50 != 1 || s.tail != 1 || s.mean != 1 || rate != 8000 || s.parts != parts {
		t.Errorf("p50 %v tail %v mean %v rate %v parts %d, want 1, 1, 1, 8000 and %d",
			s.p50, s.tail, s.mean, rate, s.parts, parts)
	}
}
