package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/gaussian"
	"github.com/gauss-tree/gausstree/internal/obs"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/pfv"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// span is one timed call at a layer boundary. Spans of one replayed request
// share Trace; Parent names the layer whose call contains this one.
type span struct {
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (rec *recorder) add(trace int, name, parent string, start, end time.Time) time.Duration {
	rec.spans = append(rec.spans, span{
		Trace: trace, Name: name, Parent: parent,
		StartNS: start.Sub(rec.t0).Nanoseconds(), EndNS: end.Sub(rec.t0).Nanoseconds(),
	})
	return end.Sub(start)
}

func (rec *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceMetrics collects the per-layer metrics of a traced run.
type traceMetrics struct {
	rec    recorder
	values map[string]float64
	notes  map[string]string
	// writePages is the page writes of the insert phase.
	writePages uint64
}

func newTraceMetrics() *traceMetrics {
	return &traceMetrics{rec: recorder{t0: time.Now()}, values: map[string]float64{}, notes: map[string]string{}}
}

// reads records the read-path counters of the window.
func (tm *traceMetrics) reads(l *loop, io pagefile.Stats) {
	nq := float64(len(l.lat))
	if nq == 0 {
		return
	}
	tm.values["core.nodes_per_query"] = float64(l.nodes) / nq
	tm.values["core.vectors_scored_per_query"] = float64(l.scored) / nq
	tm.values["core.early_termination_ratio"] = float64(l.early) / nq
	tm.values["core.candidates_retained"] = float64(l.ret) / nq
	if io.LogicalReads > 0 {
		tm.values["pagefile.hit_ratio"] = float64(io.CacheHits) / float64(io.LogicalReads)
	}
	tm.values["pagefile.logical_reads_per_query"] = float64(io.LogicalReads) / nq
	tm.values["pagefile.physical_reads_per_query"] = float64(io.PhysicalReads) / nq
}

// sampleWrites starts watching the insert phase: it samples the WAL's
// durability lag and the pages in limbo every few milliseconds. The returned
// function stops the sampler and records the phase's WAL and epoch rates.
// On an untraced run (nil tm) it does nothing.
func (tm *traceMetrics) sampleWrites(r *rig) (stop func()) {
	if tm == nil {
		return func() {}
	}
	ws0, e0 := r.walStats(), r.snapshotEpoch()
	io0, _ := r.ioStats()
	start := time.Now()
	quit, done := make(chan struct{}), make(chan struct{})
	var lag, limbo []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				ws := r.walStats()
				l := 0.0
				if ws.AppendedLSN > ws.DurableLSN {
					l = float64(ws.AppendedLSN - ws.DurableLSN)
				}
				lag = append(lag, l)
				limbo = append(limbo, float64(r.limboPages()))
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		secs := time.Since(start).Seconds()
		ws1, e1 := r.walStats(), r.snapshotEpoch()
		io1, _ := r.ioStats()
		fsyncs := float64(ws1.Fsyncs - ws0.Fsyncs)
		tm.values["wal.fsyncs_per_s"] = fsyncs / secs
		if fsyncs > 0 {
			tm.values["wal.records_per_fsync"] = float64(ws1.Records-ws0.Records) / fsyncs
		}
		tm.values["wal.lag_records"] = mean(lag)
		tm.values["core.limbo_pages"] = mean(limbo)
		tm.values["core.snapshot_epochs_per_s"] = float64(e1-e0) / secs
		tm.writePages = io1.Writes - io0.Writes
	}
}

// inserted records how many vectors the insert phase acknowledged.
func (tm *traceMetrics) inserted(vectors int) {
	if vectors > 0 {
		tm.values["pagefile.writes_per_vector"] = float64(tm.writePages) / float64(vectors)
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanUS returns the mean of ds in microseconds.
func meanUS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	if len(ds) == 0 {
		return 0
	}
	return us(sum) / float64(len(ds))
}

// replay sends a sample of the pool again, one layer boundary at a time:
// the loopback client call, the gaussd handler through httptest (no TCP),
// the facade call, and the scoring kernel. Each boundary gets its own pass
// over the sample, so a cold cache is in the same state for every layer, and
// a last pass repeats the client calls without recording spans. Self time is
// the difference between adjacent layers.
func (tm *traceMetrics) replay(cfg config, r *rig, in *inputs, work string) error {
	ctx := context.Background()
	if r.srv == nil {
		if err := r.serve(); err != nil {
			return err
		}
	}
	n := min(cfg.replay, len(in.pool))
	sample := in.pool[:n]
	rec := &tm.rec
	v := tm.values

	// Outermost layer, with span recording; the same pass without it comes
	// last, and the gap between the two is the tracing overhead.
	client := make([]time.Duration, n)
	for i, req := range sample {
		s := time.Now()
		if _, _, err := r.query(ctx, req, true); err != nil {
			return err
		}
		client[i] = rec.add(i, "client", "", s, time.Now())
	}

	// gaussd's handler without the network.
	h := r.srv.Handler()
	hreqs := make([]*http.Request, n)
	hrecs := make([]*httptest.ResponseRecorder, n)
	for i, req := range sample {
		path, body := encodeRequest(req)
		hreqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		hrecs[i] = httptest.NewRecorder()
	}
	handler := make([]time.Duration, n)
	m0 := mallocs()
	for i := range sample {
		s := time.Now()
		h.ServeHTTP(hrecs[i], hreqs[i])
		handler[i] = rec.add(i, "server", "client", s, time.Now())
	}
	v["server.allocs_per_request"] = float64(mallocs()-m0) / float64(n)
	for i, hr := range hrecs {
		if hr.Code != http.StatusOK {
			return fmt.Errorf("replayed request %d: handler answered %d: %s", i, hr.Code, hr.Body.String())
		}
	}

	// The facade, and the coordinator/engine split for a sharded index.
	facadeName := "core"
	if r.sh != nil {
		facadeName = "shard"
	}
	facade := make([]time.Duration, n)
	answers := make([][]gausstree.Match, n)
	stats := make([]gausstree.QueryStats, n)
	m0 = mallocs()
	for i, req := range sample {
		s := time.Now()
		ms, st, err := r.query(ctx, req, false)
		if err != nil {
			return err
		}
		facade[i] = rec.add(i, facadeName, "server", s, time.Now())
		answers[i], stats[i] = ms, st
	}
	v["core.allocs_per_query"] = float64(mallocs()-m0) / float64(n)

	start := time.Now()
	for _, req := range sample {
		if _, _, err := r.query(ctx, req, true); err != nil {
			return err
		}
	}
	untraced := time.Since(start)

	kernel := tm.kernels(sample, stats, in, facadeName)
	tm.wire(sample, answers, stats)

	callUS, handlerUS, facadeUS := meanUS(client), meanUS(handler), meanUS(facade)
	v["client.call_us"], v["client.net_self_us"] = callUS, callUS-handlerUS
	v["server.handler_us"], v["server.handler_self_us"] = handlerUS, handlerUS-facadeUS
	v["pfv.kernel_us_per_query"] = kernel
	var coreUS float64
	if r.sh != nil {
		var err error
		if coreUS, err = tm.shardSplit(ctx, r, sample); err != nil {
			return err
		}
		v["shard.query_us"], v["shard.self_us"] = facadeUS, facadeUS-coreUS
		tm.notes["core.query_us"] = "critical path of the per-shard engine spans"
	} else {
		coreUS = facadeUS
		if err := tm.shardReplica(ctx, cfg, r, in, work); err != nil {
			return err
		}
	}
	v["core.query_us"] = coreUS
	v["trace.untraced_us"] = us(untraced) / float64(n)
	selfSum := v["client.net_self_us"] + v["server.handler_self_us"] + facadeUS
	v["trace.self_sum_us"] = selfSum
	v["trace.overhead_us"] = selfSum - v["trace.untraced_us"]
	tm.notes["trace.self_sum_us"] = fmt.Sprintf("client, server and facade self times over %d replayed requests", n)
	return tm.coreInsert(in)
}

// encodeRequest returns the gaussd path and JSON body of a pool request.
// The errors are dropped because the wire types of a validated vector always
// marshal.
func encodeRequest(req request) (string, []byte) {
	if req.tiq {
		b, _ := json.Marshal(wire.QueryRequest{Query: req.q, PTheta: pTheta})
		return "/v1/tiq", b
	}
	b, _ := json.Marshal(wire.QueryRequest{Query: req.q, K: k})
	return "/v1/kmliq", b
}

// wire times encoding/json on the wire types of the sample's requests and
// responses.
func (tm *traceMetrics) wire(sample []request, answers [][]gausstree.Match, stats []gausstree.QueryStats) {
	var enc, dec time.Duration
	var reqBytes, respBytes int
	for i, req := range sample {
		t0 := time.Now()
		_, body := encodeRequest(req)
		resp, err := json.Marshal(wire.QueryResponse{Matches: answers[i], Stats: wire.FromQueryStats(stats[i])})
		t1 := time.Now()
		var qr wire.QueryRequest
		var rr wire.QueryResponse
		if err == nil {
			err = json.Unmarshal(body, &qr)
		}
		if err == nil {
			err = json.Unmarshal(resp, &rr)
		}
		t2 := time.Now()
		if err != nil {
			tm.notes["wire.encode_us"] = "codec error: " + err.Error()
		}
		enc += tm.rec.add(i, "wire.encode", "server", t0, t1)
		dec += tm.rec.add(i, "wire.decode", "server", t1, t2)
		reqBytes += len(body)
		respBytes += len(resp)
	}
	n := float64(len(sample))
	tm.values["wire.encode_us"] = us(enc) / n
	tm.values["wire.decode_us"] = us(dec) / n
	tm.values["wire.request_bytes"] = float64(reqBytes) / n
	tm.values["wire.response_bytes"] = float64(respBytes) / n
}

// leafBatch is the vectors per kernel call, about a full leaf of a 10-d tree
// on 8 KB pages.
const leafBatch = 40

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float64

// kernels times the scoring and bound kernels per vector and LogHull per
// call over leaf-sized batches of the data set, then replays each sampled
// request's scoring work — its VectorsScored vectors — and returns the mean
// replay time in microseconds.
func (tm *traceMetrics) kernels(sample []request, stats []gausstree.QueryStats, in *inputs, parent string) float64 {
	var cols []*pfv.Columns
	for i := 0; i+leafBatch <= min(len(in.ds.Vectors), 4096); i += leafBatch {
		cols = append(cols, pfv.ColumnsOf(in.ds.Vectors[i:i+leafBatch], in.ds.Dim))
	}
	out := make([]float64, leafBatch)
	scratch := make([]float64, in.ds.Dim)
	queries := sample[:min(len(sample), 64)]

	var scoreT, boundT, hullT time.Duration
	var vectors, hulls int
	for _, req := range queries {
		ev := pfv.NewJointEvaluator(gaussian.CombineAdditive, req.q)
		t0 := time.Now()
		for _, c := range cols {
			ev.ScoreColumns(c, out)
			sink += out[0]
		}
		t1 := time.Now()
		for _, c := range cols {
			ev.UpperBoundColumns(c, scratch, out)
			sink += out[0]
		}
		t2 := time.Now()
		for _, c := range cols {
			for d := 0; d < c.Dim(); d++ {
				mu := gaussian.Interval{Lo: c.Mean[d][0], Hi: c.Mean[d][0]}
				for _, x := range c.Mean[d] {
					mu = mu.Extend(x)
				}
				sg := gaussian.Interval{Lo: c.SigmaMin[d], Hi: c.SigmaMax[d]}
				sink += gaussian.LogHull(mu, sg, req.q.Mean[d])
			}
			hulls += c.Dim()
		}
		t3 := time.Now()
		scoreT += t1.Sub(t0)
		boundT += t2.Sub(t1)
		hullT += t3.Sub(t2)
		vectors += len(cols) * leafBatch
	}
	tm.values["pfv.score_ns_per_vector"] = float64(scoreT) / float64(vectors)
	tm.values["pfv.bound_ns_per_vector"] = float64(boundT) / float64(vectors)
	// The hull timing includes building each batch's mean interval, which
	// the tree stores precomputed; that loop is the same on both sides of a
	// comparison.
	tm.values["gaussian.loghull_ns"] = float64(hullT) / float64(hulls)

	var total time.Duration
	for i, req := range sample {
		ev := pfv.NewJointEvaluator(gaussian.CombineAdditive, req.q)
		s := time.Now()
		for left, b := stats[i].VectorsScored, 0; left > 0; b++ {
			ev.ScoreColumns(cols[b%len(cols)], out)
			left -= leafBatch
		}
		total += tm.rec.add(i, "kernel", parent, s, time.Now())
	}
	return us(total) / float64(len(sample))
}

// shardSplit replays the sample on the sharded facade with the engine's own
// trace attached, and returns the mean critical path through the per-shard
// engine spans (per coordinator round, the slowest shard), in microseconds.
// It also records the coordinator's merge rounds and shard balance.
func (tm *traceMetrics) shardSplit(ctx context.Context, r *rig, sample []request) (float64, error) {
	var critical time.Duration
	var rounds, ratio float64
	for i, req := range sample {
		tr := obs.NewTrace("")
		_, st, err := r.shardedQuery(obs.WithTrace(ctx, tr), req)
		if err != nil {
			tr.Release()
			return 0, err
		}
		slowest := map[int]int64{}
		for _, sp := range tr.Spans() {
			if sp.Shard < 0 {
				continue
			}
			slowest[sp.Round] = max(slowest[sp.Round], sp.DurUS)
			s := tr.Start().Add(time.Duration(sp.StartUS) * time.Microsecond)
			tm.rec.add(i, fmt.Sprintf("core.shard-%d", sp.Shard), "shard", s, s.Add(time.Duration(sp.DurUS)*time.Microsecond))
		}
		tr.Release()
		for _, d := range slowest {
			critical += time.Duration(d) * time.Microsecond
		}
		rounds += float64(st.MergeRounds)
		ratio += pagesRatio(st)
	}
	n := float64(len(sample))
	tm.values["shard.merge_rounds_per_query"] = rounds / n
	tm.values["shard.max_shard_pages_ratio"] = ratio / n
	return us(critical) / n, nil
}

// pagesRatio is the slowest shard's page count over the mean.
func pagesRatio(st gausstree.ShardedQueryStats) float64 {
	var sum, most uint64
	for _, s := range st.PerShard {
		sum += s.PageAccesses
		most = max(most, s.PageAccesses)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(len(st.PerShard)) / float64(sum)
}

// shardReplica measures the shard coordinator on a single-file workload: it
// builds the same data as a one-shard directory index opened with the same
// cache, warms it like the workload's index, and replays the sample through
// it. The coordinator's self time is its query time less the Tree's on the
// same requests.
func (tm *traceMetrics) shardReplica(ctx context.Context, cfg config, r *rig, in *inputs, work string) (err error) {
	rep, err := buildRig(workload{shards: 1}, r.cache, filepath.Join(work, "replica"), in.ds.Vectors, in.ds.Dim)
	if err != nil {
		return err
	}
	if err := rep.open(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, rep.close()) }()
	for _, req := range in.pool {
		if _, _, err := rep.query(ctx, req, false); err != nil {
			return err
		}
	}
	// Replay each request on the Tree and on the replica back to back, in
	// alternating order, so both see the same moment of the host.
	n := min(cfg.replay, len(in.pool))
	var total, tree time.Duration
	var rounds, ratio float64
	for i, req := range in.pool[:n] {
		for pass := 0; pass < 2; pass++ {
			s := time.Now()
			if (pass+i)%2 == 0 {
				if _, _, err := r.query(ctx, req, false); err != nil {
					return err
				}
				tree += time.Since(s)
				continue
			}
			_, st, err := rep.shardedQuery(ctx, req)
			if err != nil {
				return err
			}
			total += tm.rec.add(i, "shard.replica", "", s, time.Now())
			rounds += float64(st.MergeRounds)
			ratio += pagesRatio(st)
		}
	}
	q := us(total) / float64(n)
	tm.values["shard.query_us"], tm.values["shard.self_us"] = q, q-us(tree)/float64(n)
	tm.values["shard.merge_rounds_per_query"] = rounds / float64(n)
	tm.values["shard.max_shard_pages_ratio"] = ratio / float64(n)
	tm.notes["shard.query_us"] = "one-shard replica of the workload's index"
	return nil
}

// coreInsert times single inserts into a memory-backed copy of the data set,
// which has no write-ahead log.
func (tm *traceMetrics) coreInsert(in *inputs) error {
	t, err := gausstree.New(in.ds.Dim)
	if err != nil {
		return err
	}
	defer t.Close()
	if err := t.BulkLoad(in.ds.Vectors); err != nil {
		return err
	}
	vs := newFreshStream(in).batch(512)
	start := time.Now()
	for _, v := range vs {
		if err := t.Insert(v); err != nil {
			return err
		}
	}
	tm.values["core.insert_us"] = us(time.Since(start)) / float64(len(vs))
	return nil
}

// finish measures the page file and the device on the closed index and
// writes the spans out.
func (tm *traceMetrics) finish(cfg config, path, work string) error {
	file := path
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		file = filepath.Join(path, "shard-0000.gtree")
	}
	if err := tm.pageReads(file); err != nil {
		return err
	}
	if err := tm.device(filepath.Join(work, "device.probe")); err != nil {
		return err
	}
	return tm.rec.write(filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// pageReads times page reads through a fresh page manager on the closed
// index file: the first read of each page misses the buffer cache (pread,
// CRC check), the second hits it.
func (tm *traceMetrics) pageReads(file string) error {
	b, err := pagefile.OpenFile(file)
	if err != nil {
		return err
	}
	m, err := pagefile.NewManager(b, b.PageSize(), pagefile.WithCacheBytes(64<<20))
	if err != nil {
		return errors.Join(err, b.Close())
	}
	ids := rand.New(rand.NewSource(1)).Perm(m.NumPages())[:min(m.NumPages(), 1024)]
	var miss, hit []float64
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			t0 := time.Now()
			if _, err := m.Read(pagefile.PageID(id)); err != nil {
				continue // free or never-written page
			}
			d := float64(time.Since(t0))
			if pass == 0 {
				miss = append(miss, d/float64(time.Microsecond))
			} else {
				hit = append(hit, d)
			}
		}
	}
	tm.values["pagefile.read_miss_us"] = median(miss)
	tm.values["pagefile.read_hit_ns"] = median(hit)
	tm.notes["pagefile.read_miss_us"] = "median; the file is in the OS page cache"
	return m.Close()
}

// device times 8 KB preads and 4 KB write+fsync pairs on a scratch file in
// the run's directory.
func (tm *traceMetrics) device(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer os.Remove(file)
	defer f.Close()
	const block, blocks = 8 << 10, 2048
	buf := make([]byte, block)
	rng := rand.New(rand.NewSource(2))
	rng.Read(buf)
	for i := 0; i < blocks; i++ {
		if _, err := f.WriteAt(buf, int64(i)*block); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	var preads, fsyncs []float64
	for i := 0; i < 1024; i++ {
		t0 := time.Now()
		if _, err := f.ReadAt(buf, int64(rng.Intn(blocks))*block); err != nil {
			return err
		}
		preads = append(preads, us(time.Since(t0)))
	}
	for i := 0; i < 64; i++ {
		if _, err := f.WriteAt(buf[:4096], int64(rng.Intn(blocks))*block); err != nil {
			return err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return err
		}
		fsyncs = append(fsyncs, us(time.Since(t0)))
	}
	tm.values["device.pread_us"] = median(preads)
	tm.values["device.fsync_us"] = median(fsyncs)
	tm.notes["device.fsync_us"] = "median of 64 fsyncs after a 4 KB write"
	return nil
}
