// Command perfbench is the end-to-end benchmark of the pgFMU engine. It
// drives the engine only through its public Go API (package repro) and its
// HTTP front end (internal/server), on three workloads:
//
//   - calibrate: repeated fmu_parest over an HP1 fleet and a classroom model;
//   - analytics: a seeded mix of simulation and pure-SQL queries;
//   - serve: concurrent HTTP sessions against a durable database.
//
// Usage:
//
//	perfbench --workload calibrate --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload again with spans around every call into an engine module and
// prints the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every output is
// checked against the benchmark's own computation (ref.go); a failed check
// sets "correct" to false and the exit code to 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric names a reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Workloads
// differ in what an operation is (see README.md), so the names are shared
// roles rather than per-workload figures: kindN_ms is the latency (kindMs)
// of the workload's N-th operation kind. A workload with fewer kinds than
// kindSlots fills the remaining slots with its kinds again, in order, so
// that every kind has a bound on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"kind1_ms", "ms"},
	{"kind2_ms", "ms"},
	{"kind3_ms", "ms"},
	{"kind4_ms", "ms"},
}

const kindSlots = 4

// perLayer are the metrics every workload reports with --trace 1. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metric{
	{"dataset.generate_ms", "ms"},
	{"fmu.compile_ms", "ms"},
	{"sqldb.load_rows_per_s", "1/s"},
	{"sqldb.reopen_ms", "ms"},
	{"estimate.cost_evals", "count"},
	{"estimate.warm_starts", "count"},
	{"estimate.cost_eval_ms", "ms"},
	{"fmu.simulate_ms", "ms"},
	{"fmu.allocs_per_simulate", "count"},
	{"solver.steps", "count"},
	{"fmu.ns_per_step", "ns"},
	{"solver.native_ns_per_step", "ns"},
	{"core.simcache_hits", "count"},
	{"core.simcache_misses", "count"},
	{"core.simulate_hit_ms", "ms"},
	{"core.simulate_miss_ms", "ms"},
	{"core.set_initial_ms", "ms"},
	{"sqldb.input_fetch_ms", "ms"},
	{"sqldb.plan_us", "us"},
	{"sqldb.exec_ms", "ms"},
	{"sqldb.catalogue_update_ms", "ms"},
	{"sqldb.commits_per_op", "count"},
	{"sqldb.wal_records_per_op", "count"},
	{"sqldb.checkpoints", "count"},
	{"sqldb.checkpoint_ms", "ms"},
	{"sqldb.disk_bytes_per_row", "bytes"},
	{"server.http_overhead_us.read", "us"},
	{"server.http_overhead_us.insert", "us"},
	{"server.http_overhead_us.simulate", "us"},
	{"server.http_overhead_us.range", "us"},
	{"server.conflict_retries", "count"},
	{"trace.ops_per_s", "1/s"},
	{"self_ms_per_op.bench", "ms"},
	{"self_ms_per_op.core", "ms"},
	{"self_ms_per_op.sqldb", "ms"},
	{"self_ms_per_op.server", "ms"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	data    string // directory for the serve workload's databases and span files
	scale   scale
	log     io.Writer
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	setups            []time.Duration
	phases            []setupPhases // of every set-up, in the order of setups
	ops               *latencies
	elapsed           time.Duration // measured window
	named             []namedValue  // workload-specific figures, printed as report lines
	layer             map[string]float64
	checks            []error
	tracers           []*tracer
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (r *report) name(name string, v float64, unit string) {
	r.named = append(r.named, namedValue{name, v, unit})
}

func (r *report) check(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

var workloads = map[string]func(config) (*report, error){
	"calibrate": runCalibrate,
	"analytics": runAnalytics,
	"serve":     runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "calibrate, analytics or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	data := flag.String("data", ".bench_build", "directory for databases and span files")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload calibrate|analytics|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, data: *data,
		scale: defaultScale, log: os.Stderr}
	if err := os.MkdirAll(cfg.data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(2)
	}
	out := finish(*workload, cfg, rep, os.Stdout)
	if !out.Correct {
		os.Exit(1)
	}
}

// finish prints the report lines and the result object, and writes the
// spans of a traced run.
func finish(workload string, cfg config, rep *report, w io.Writer) resultOut {
	out := resultOut{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut)}
	for _, err := range rep.checks {
		fmt.Fprintf(cfg.log, "check failed: %v\n", err)
	}
	e2e := map[string]float64{
		"setup_s":   batchMedian(rep.setups, cfg.scale.setupBatch[workload]),
		"ops_per_s": float64(rep.ops.count()) / rep.elapsed.Seconds(),
	}
	for i := 0; i < kindSlots; i++ {
		kind := rep.ops.kinds[i%len(rep.ops.kinds)]
		e2e[fmt.Sprintf("kind%d_ms", i+1)] = rep.ops.kindMs(kind)
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v nproc=%d\n",
		workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU())
	fmt.Fprintf(w, "# attempted=%d failed=%d setups=%d measured=%.3fs\n",
		rep.attempted, rep.failed, len(rep.setups), rep.elapsed.Seconds())
	for _, n := range rep.named {
		fmt.Fprintf(w, "# %s %.6g %s\n", n.name, n.value, n.unit)
	}
	for i := 0; i < kindSlots; i++ {
		fmt.Fprintf(w, "# kind%d_ms is %s\n", i+1, rep.ops.kinds[i%len(rep.ops.kinds)])
	}
	if cfg.trace {
		rep.layer["trace.ops_per_s"] = e2e["ops_per_s"]
		self := selfTime(rep.tracers)
		ops := float64(rep.ops.count())
		for _, layer := range []string{"bench", "core", "sqldb", "server"} {
			rep.layer["self_ms_per_op."+layer] = ms(self[layer]) / ops
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = metricOut{rep.layer[m.name], m.unit}
		}
		var unknown []string
		for k := range rep.layer {
			if _, ok := out.Metrics[k]; !ok {
				unknown = append(unknown, k)
			}
		}
		sort.Strings(unknown)
		for _, k := range unknown {
			fmt.Fprintf(cfg.log, "perfbench: unlisted per-layer metric %s\n", k)
		}
		path := filepath.Join(cfg.data, fmt.Sprintf("spans-%s-%d.jsonl", workload, cfg.seed))
		if err := writeSpans(path, rep.tracers); err != nil {
			fmt.Fprintln(cfg.log, "perfbench:", err)
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricOut{e2e[m.name], m.unit}
		}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
	return out
}
