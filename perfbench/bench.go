package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/gauss-tree/gausstree"
)

// config sizes one run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // length of the measured window
	trace    bool
	dir      string // parent of the run's working directory
	n        int    // vectors in the data set
	pool     int    // distinct queries the callers cycle through
	// setupReps is how many times the index is built, reopened and warmed;
	// setup_s is the median, and the last build is the one measured.
	setupReps int
	replay    int // requests replayed at every layer boundary in a traced run
	coldCache int // buffer cache bytes of the cold workload
}

func defaultConfig(name string, seed int64, window time.Duration, trace bool, dir string) config {
	return config{
		workload: name, seed: seed, window: window, trace: trace, dir: dir,
		n: 100_000, pool: 384, setupReps: 3, replay: 256, coldCache: 2 << 20,
	}
}

// loop gathers what one closed-loop caller observed.
type loop struct {
	lat                       []time.Duration
	at                        []time.Duration // completion of each lat sample, from the phase's start
	pages, nodes, scored, ret uint64
	early                     int
	attempted, failed         int64
	problems                  []string
	acked                     []gausstree.Vector // insert callers only
}

func (l *loop) fail(msg string) {
	l.failed++
	if len(l.problems) < 10 {
		l.problems = append(l.problems, msg)
	}
}

// run executes one workload and returns its result.
func run(cfg config) (result, error) {
	w := workloads[cfg.workload]
	work := filepath.Join(cfg.dir, fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	in, err := makeInputs(cfg.n, cfg.pool, cfg.seed)
	if err != nil {
		return result{}, err
	}
	if w.writer {
		// Reads under writes are certified k-MLIQ only.
		for i := range in.pool {
			in.pool[i].tiq = false
		}
	}
	var oracle []truth
	if w.checked {
		oracle = buildOracle(in)
	}
	cache := 0
	if w.cold {
		cache = cfg.coldCache
	}

	// Set-up: build, reopen and warm the index several times; report the
	// median and keep the last build.
	reps := cfg.setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var r *rig
	var heapMB float64
	for i := 0; i < reps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
			os.RemoveAll(r.path)
			os.Remove(r.path + ".wal")
		}
		path := filepath.Join(work, fmt.Sprintf("index-%d", i))
		start := time.Now()
		r, heapMB, err = setUp(w, cache, path, in)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	m := map[string]float64{"setup_s": median(setups), "index_heap_mb": heapMB}
	notes := map[string]string{"setup_s": fmt.Sprintf("median of %d builds", len(setups))}
	var tm *traceMetrics
	if cfg.trace {
		tm = newTraceMetrics()
	}

	// The measured window: the closed-loop reader, plus the writer on the
	// ingest workload. It starts on a collected heap, so that the set-up's
	// garbage is not collected inside it.
	runtime.GC()
	io0, err := r.ioStats()
	if err != nil {
		return result{}, err
	}
	reads, writes, windowSecs := window(cfg, w, r, in, oracle, tm)
	io1, err := r.ioStats()
	if err != nil {
		return result{}, err
	}
	if tm != nil {
		tm.reads(reads, io1.Sub(io0))
		if err := tm.replay(cfg, r, in, work); err != nil {
			return result{}, err
		}
	}
	// Read-only workloads send an insert probe after the window, so every
	// workload reports insert latency through its own entry point; their
	// disk footprint is taken before it, with the files at rest.
	writeSecs := windowSecs
	var bytes int64
	if !w.writer {
		if bytes, err = diskBytes(r.path); err != nil {
			return result{}, err
		}
		m["disk_bytes_per_vector"] = float64(bytes) / float64(r.len())
		writes, writeSecs = probe(cfg, w, r, in, tm)
	}
	if tm != nil {
		tm.inserted(len(writes.acked))
	}

	q, qps := sliced(reads, windowSecs, 1)
	m["query_per_s"] = qps
	m["query_p50_ms"], m["query_p99_ms"] = q.p50, q.tail
	notes["query_per_s"] = fmt.Sprintf("%d queries in %.1fs", len(reads.lat), windowSecs)
	notes["query_p99_ms"] = q.note()
	if len(reads.lat) > 0 {
		m["pages_per_query"] = float64(reads.pages) / float64(len(reads.lat))
	}
	ins, vps := sliced(writes, writeSecs, batchSize)
	m["insert_vectors_per_s"] = vps
	// Group commit quantizes ack latency into modes one commit window
	// apart, and the share of batches in each mode follows the host's
	// speed: the median jumps between modes from run to run, the mean
	// moves with the share.
	m["insert_ack_mean_ms"], m["insert_ack_p99_ms"] = ins.mean, ins.tail
	notes["insert_ack_mean_ms"] = fmt.Sprintf("median %.3f ms", ins.p50)
	notes["insert_ack_p99_ms"] = ins.note()
	if !w.writer {
		notes["insert_vectors_per_s"] = fmt.Sprintf("insert probe of %.1fs after the window", writeSecs)
	}

	live := r.len()
	if err := r.close(); err != nil {
		return result{}, err
	}
	if w.writer {
		if bytes, err = diskBytes(r.path); err != nil {
			return result{}, err
		}
		m["disk_bytes_per_vector"] = float64(bytes) / float64(live)
	}

	// Durability: every acknowledged vector survives Close and reopen, and
	// the reopened index passes its invariant check.
	missing, derr := checkDurable(w, r.path, writes.acked)
	attempted := reads.attempted + writes.attempted
	failed := reads.failed + writes.failed + int64(missing)
	problems := append(reads.problems, writes.problems...)
	if missing > 0 {
		problems = append(problems, fmt.Sprintf("%d acknowledged vectors missing after reopen", missing))
	}
	if derr != nil {
		problems = append(problems, derr.Error())
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", p)
	}
	correct := failed == 0 && derr == nil

	if tm != nil {
		if err := tm.finish(cfg, r.path, work); err != nil {
			return result{}, err
		}
		m, notes = tm.values, tm.notes
	}
	return report(cfg, m, notes, attempted, failed, correct), nil
}

// setUp builds the index at path, reopens it as the workload uses it, starts
// gaussd when the workload is served, and warms it with one pass over the
// query pool. It returns the heap growth from before the reopen to after
// the warm-up, in MB.
func setUp(w workload, cache int, path string, in *inputs) (*rig, float64, error) {
	r, err := buildRig(w, cache, path, in.ds.Vectors, in.ds.Dim)
	if err != nil {
		return nil, 0, err
	}
	heap0 := liveHeap()
	if err := r.open(); err != nil {
		return nil, 0, err
	}
	if w.served {
		if err := r.serve(); err != nil {
			return nil, 0, err
		}
	}
	ctx := context.Background()
	for _, req := range in.pool {
		if _, _, err := r.query(ctx, req, w.served); err != nil {
			return nil, 0, fmt.Errorf("warm-up query: %w", err)
		}
	}
	return r, float64(int64(liveHeap())-int64(heap0)) / (1 << 20), nil
}

// liveHeap returns the live heap bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// window runs the workload's closed loops for cfg.window — one query caller,
// plus the insert caller on the ingest workload — and returns what each saw
// and the window's length in seconds.
func window(cfg config, w workload, r *rig, in *inputs, oracle []truth, tm *traceMetrics) (reads, writes *loop, secs float64) {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(cfg.window)
	writes = &loop{}
	var wg sync.WaitGroup
	if w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop := tm.sampleWrites(r)
			defer stop()
			fresh := newFreshStream(in)
			for time.Now().Before(deadline) {
				insertOnce(ctx, r, fresh, w.served, start, writes)
			}
		}()
	}
	l := &loop{}
	for i := 0; time.Now().Before(deadline); i++ {
		j := i % len(in.pool)
		req := in.pool[j]
		t0 := time.Now()
		ms, st, err := r.query(ctx, req, w.served)
		lat := time.Since(t0)
		l.attempted++
		if err != nil {
			l.fail(err.Error())
			continue
		}
		l.lat = append(l.lat, lat)
		l.at = append(l.at, time.Since(start))
		l.pages += st.PageAccesses
		l.nodes += uint64(st.NodesVisited)
		l.scored += uint64(st.VectorsScored)
		l.ret += uint64(st.CandidatesRetained)
		if st.EarlyTermination {
			l.early++
		}
		var bad []string
		if w.checked {
			bad = checkAnswer(in, req, oracle[j], ms)
		} else {
			bad = checkShape(ms)
		}
		if len(bad) > 0 {
			l.fail(fmt.Sprintf("query %d: %v", j, bad))
		}
	}
	wg.Wait()
	return l, writes, time.Since(start).Seconds()
}

// probe sends insert requests, one at a time, through the workload's entry
// point for half the window, and returns what it saw and how long it took.
func probe(cfg config, w workload, r *rig, in *inputs, tm *traceMetrics) (*loop, float64) {
	stop := tm.sampleWrites(r)
	defer stop()
	fresh := newFreshStream(in)
	l := &loop{}
	start := time.Now()
	for deadline := start.Add(cfg.window / 2); time.Now().Before(deadline); {
		insertOnce(context.Background(), r, fresh, w.served, start, l)
	}
	return l, time.Since(start).Seconds()
}

// insertOnce sends one batch of fresh vectors and waits for its durable
// acknowledgement; start is the beginning of the phase it belongs to.
func insertOnce(ctx context.Context, r *rig, fresh *freshStream, viaClient bool, start time.Time, l *loop) {
	vs := fresh.batch(batchSize)
	t0 := time.Now()
	acked, err := r.insert(ctx, vs, viaClient)
	lat := time.Since(t0)
	l.attempted++
	l.acked = append(l.acked, acked...)
	if err != nil {
		l.fail("insert: " + err.Error())
		return
	}
	l.lat = append(l.lat, lat)
	l.at = append(l.at, time.Since(start))
}

// parts is how many equal, consecutive parts of a timed phase its latency
// and rate metrics are taken over. Each metric is the median of the parts'
// values, so that a burst of host noise within one part does not set the
// run's figure.
const parts = 3

// sliced splits l's samples by completion time into parts equal parts of a
// phase of secs seconds and returns the medians over the parts of their
// latency summaries and of their rates (samples per second times perOp).
func sliced(l *loop, secs float64, perOp int) (latencySummary, float64) {
	split := make([][]time.Duration, parts)
	for i, d := range l.lat {
		k := min(int(l.at[i].Seconds()/secs*parts), parts-1)
		split[k] = append(split[k], d)
	}
	var p50, avg, tail, pct, n, rate []float64
	for _, p := range split {
		s := summarize(p)
		p50, avg, tail = append(p50, s.p50), append(avg, s.mean), append(tail, s.tail)
		pct, n = append(pct, s.tailPct), append(n, float64(s.n))
		rate = append(rate, float64(len(p)*perOp)/(secs/parts))
	}
	return latencySummary{
		p50: median(p50), mean: median(avg), tail: median(tail),
		tailPct: median(pct), n: int(median(n)), parts: parts,
	}, median(rate)
}
