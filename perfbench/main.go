// Command perfbench is TargAD's benchmark. It runs the whole system in
// one process — registry-hosted replicas, the fleet router, offline
// core.Model.Fit/Score — drives it with a seeded open-loop generator,
// checks every answer against offline scoring, and prints one JSON
// result as its last line of output.
//
//	perfbench --workload score-single --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with span middleware and isolated layer calls and prints
// the per-layer metrics instead. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Metric units. The lists below are the benchmark's contract and must
// match BENCHMARK.json (TestBenchmarkJSONMatchesMetrics).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms.low", "ms"},
	{"p90_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"p90_ms.high", "ms"},
	{"max_rps", "1/s"},
	{"ok_ratio", "ratio"},
	{"fit_s", "s"},
	{"score_rows_per_s", "rows/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"loadgen.p99_ms.low", "ms"},
	{"loadgen.p99_ms.high", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.refused", "count"},
	{"fleet.hop_ms_p50", "ms"},
	{"fleet.hop_ms_p99", "ms"},
	{"fleet.attempts_per_req", "ratio"},
	{"registry.loads", "count"},
	{"registry.evictions", "count"},
	{"registry.singleflight_waits", "count"},
	{"registry.cold_load_ms", "ms"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.rows_per_batch", "rows"},
	{"serve.shed", "count"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.json_overhead_ms", "ms"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"core.infer_us.rows1", "us"},
	{"core.infer_us.rows64", "us"},
	{"core.infer_us.rows256", "us"},
	{"core.infer_f32_us.rows64", "us"},
	{"mat.flops_per_row", "flop"},
	{"monitor.observe_us_per_row", "us"},
	{"activelearn.offered", "count"},
	{"activelearn.admitted", "count"},
	{"activelearn.offer_us", "us"},
	{"feedback.append_ms_p50", "ms"},
	{"feedback.dedup_ratio", "ratio"},
	{"feedback.post_ms_p50", "ms"},
	{"feedback.post_ms_p95", "ms"},
	{"cluster.choosek_s", "s"},
	{"cluster.kmeans_s", "s"},
	{"autoencoder.train_s", "s"},
	{"core.clf_epoch_ms", "ms"},
	{"core.clf_s", "s"},
	{"core.pre_clf_s", "s"},
	{"core.score_us_per_row", "us"},
	{"core.auprc", "ratio"},
	{"runtime.cpu_ms_per_req", "ms"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_p50_ms.low", "ms"},
	{"trace.overhead_p99_ms.low", "ms"},
	{"trace.overhead_p50_ms.high", "ms"},
	{"trace.overhead_p99_ms.high", "ms"},
}

type metricDef struct{ name, unit string }

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// result is what a workload run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func (r *result) notef(format string, v ...any) { r.notes = append(r.notes, fmt.Sprintf(format, v...)) }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: score-single, score-routed-mixed or fit")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for models, verdict stores and spans")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(o options) (*result, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	var res *result
	var err error
	switch o.workload {
	case "score-single":
		res, err = runServing(o, scoreSingleSpec(o.seed), dir, start)
	case "score-routed-mixed":
		res, err = runServing(o, scoreRoutedSpec(o.seed), dir, start)
	case "fit":
		res, err = runFit(o, dir, start)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	res.values["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// phaseDur is share of the run's measured seconds.
func (o options) phaseDur(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// reportMS converts a latency percentile to ms, reporting a failed
// operation's latency as the client timeout.
func reportMS(d time.Duration) float64 { return ms(min(d, clientTimeout)) }

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procStats is a whole-process resource snapshot: the generator, the
// servers and the router share the process, so differences count all
// of them.
type procStats struct {
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func readProcStats() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

// setRuntime records the runtime.* metrics for ops operations run
// between a and b.
func setRuntime(v map[string]float64, a, b procStats, ops int) {
	n := float64(max(ops, 1))
	v["runtime.cpu_ms_per_req"] = ms(b.cpu-a.cpu) / n
	v["runtime.allocs_per_req"] = float64(b.mallocs-a.mallocs) / n
	v["runtime.alloc_bytes_per_req"] = float64(b.allocBytes-a.allocBytes) / n
	v["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	v["runtime.gc_pause_ms"] = ms(b.gcPause - a.gcPause)
}

// setLatencies records the end-to-end latency metrics of the low and
// high fixed-rate phases.
func setLatencies(v map[string]float64, low, high Summary) {
	v["p50_ms.low"] = reportMS(low.P50)
	v["p90_ms.low"] = reportMS(low.P90)
	v["p50_ms.high"] = reportMS(high.P50)
	v["p90_ms.high"] = reportMS(high.P90)
}

// setLoadgen records the generator's metrics over the untraced
// fixed-rate phases: their p99 latencies and its validity counters.
func setLoadgen(v map[string]float64, low, high []Sample) {
	v["loadgen.p99_ms.low"] = reportMS(Summarize(low, nil).P99)
	v["loadgen.p99_ms.high"] = reportMS(Summarize(high, nil).P99)
	s := Summarize(append(append([]Sample(nil), low...), high...), nil)
	v["loadgen.lag_p99_ms"] = ms(s.LagP99)
	v["loadgen.sent"] = float64(s.N)
	v["loadgen.ok"] = float64(s.OK)
	v["loadgen.failed"] = float64(s.N - s.OK - s.Refused)
	v["loadgen.refused"] = float64(s.Refused)
}

// describe formats a phase summary for the human-readable lines.
func describe(name, load string, s Summary) string {
	return fmt.Sprintf("%-13s %s n=%5d ok=%5d p50=%8.3fms p90=%8.3fms p99=%8.3fms (%d beyond) lag_p50=%.3fms lag_p99=%.3fms lag_growth=%.3fms",
		name, load, s.N, s.OK, reportMS(s.P50), reportMS(s.P90), reportMS(s.P99), s.Beyond99, ms(s.LagP50), ms(s.LagP99), ms(s.LagGrowth))
}
