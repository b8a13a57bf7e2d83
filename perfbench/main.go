// Command perfbench is the repository benchmark. It runs one workload
// through the public entry points (the gausstree facade and gaussd over
// loopback HTTP), checks every answer, and prints the metrics declared in
// BENCHMARK.json as a one-line JSON object on the last line of standard
// output:
//
//	perfbench --workload serve-hot --seed 1 --seconds 18 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes a
// separate traced run and reports the per-layer metrics. README.md describes
// the workloads and lists which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or of gaussd sees; every
// workload reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"insert_vectors_per_s", "1/s"},
	{"insert_ack_mean_ms", "ms"},
	{"insert_ack_p99_ms", "ms"},
	{"pages_per_query", "count"},
	{"disk_bytes_per_vector", "bytes"},
	{"index_heap_mb", "MB"},
}

// perLayer are the metrics of single layers; every workload reports all of
// them with --trace 1.
var perLayer = []metricDef{
	{"client.call_us", "us"},
	{"client.net_self_us", "us"},
	{"wire.request_bytes", "bytes"},
	{"wire.response_bytes", "bytes"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"server.handler_us", "us"},
	{"server.handler_self_us", "us"},
	{"server.allocs_per_request", "count"},
	{"core.query_us", "us"},
	{"core.allocs_per_query", "count"},
	{"core.nodes_per_query", "count"},
	{"core.vectors_scored_per_query", "count"},
	{"core.early_termination_ratio", "ratio"},
	{"core.candidates_retained", "count"},
	{"core.insert_us", "us"},
	{"core.limbo_pages", "count"},
	{"core.snapshot_epochs_per_s", "1/s"},
	{"pagefile.hit_ratio", "ratio"},
	{"pagefile.logical_reads_per_query", "count"},
	{"pagefile.physical_reads_per_query", "count"},
	{"pagefile.writes_per_vector", "count"},
	{"pagefile.read_hit_ns", "ns"},
	{"pagefile.read_miss_us", "us"},
	{"pfv.score_ns_per_vector", "ns"},
	{"pfv.bound_ns_per_vector", "ns"},
	{"pfv.kernel_us_per_query", "us"},
	{"gaussian.loghull_ns", "ns"},
	{"shard.query_us", "us"},
	{"shard.self_us", "us"},
	{"shard.merge_rounds_per_query", "count"},
	{"shard.max_shard_pages_ratio", "ratio"},
	{"wal.fsyncs_per_s", "1/s"},
	{"wal.records_per_fsync", "count"},
	{"wal.lag_records", "count"},
	{"device.fsync_us", "us"},
	{"device.pread_us", "us"},
	{"trace.untraced_us", "us"},
	{"trace.self_sum_us", "us"},
	{"trace.overhead_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: serve-hot, embedded-cold or ingest-sharded")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 makes a traced run and reports per-layer metrics")
		dir      = flag.String("dir", ".bench_build", "directory for index files and span dumps")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := defaultConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report prints a human-readable table of the metrics and builds the result,
// keeping exactly the metrics of the run's mode.
func report(cfg config, m map[string]float64, notes map[string]string, attempted, failed int64, correct bool) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.6g %-6s %s\n", d.name, v, d.unit, notes[d.name])
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Printf("  %-34s %14.6g %-6s failed %d of %d attempted\n", "ops_failed_ratio", ratio, "ratio", failed, attempted)
	return res
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencySummary holds the median, mean and tail percentile of a latency
// sample, in milliseconds.
type latencySummary struct {
	p50, mean, tail float64
	tailPct         float64 // percentile reported as the tail, in percent
	n               int
	parts           int // when set, each figure is the median over this many parts of n samples
}

// summarize sorts lat and reports its median, mean and p99, or — when fewer
// than ten samples lie beyond p99 — the highest percentile that still has
// ten.
func summarize(lat []time.Duration) latencySummary {
	n := len(lat)
	if n == 0 {
		return latencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(i int) float64 { return float64(lat[i]) / float64(time.Millisecond) }
	tailIdx := int(math.Ceil(0.99*float64(n))) - 1
	if beyond := n - 1 - tailIdx; beyond < 10 {
		tailIdx = max(n-11, 0)
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return latencySummary{
		p50:     ms((n - 1) / 2),
		mean:    float64(sum) / float64(n) / float64(time.Millisecond),
		tail:    ms(tailIdx),
		tailPct: 100 * float64(tailIdx+1) / float64(n),
		n:       n,
	}
}

func (s latencySummary) note() string {
	note := fmt.Sprintf("p%.2f of %d samples, %d beyond", s.tailPct, s.n, s.n-int(math.Round(s.tailPct*float64(s.n)/100)))
	if s.parts > 0 {
		note = fmt.Sprintf("median over %d parts, each %s", s.parts, note)
	}
	return note
}
