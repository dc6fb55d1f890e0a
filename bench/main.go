// Command bench is the repository's benchmark: four closed-loop workloads
// over a real HTTP listener and Model.Train, six end-to-end metrics on
// every workload, and a layer-by-layer budget from a separate traced run.
// BENCHMARK.json at the repository root names the workloads, the metrics
// and the bound by which each may worsen; bench/README.md explains them.
//
//	go run ./bench -workload estimate-cold [-seed 1] [-seconds 18] [-trace 0|1]
//	go run ./bench -compare dirA dirB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error. -compare reads those lines back from <dir>/<workload>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"deepod/internal/benchmeta"
)

// metricSpec names one reported metric and its unit. The lists below are
// the program's side of BENCHMARK.json; a test keeps the two in step.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"second_rate_per_s", "1/s"},
	{"second_latency_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayerMetrics are reported by a traced run. A line that does not exist
// on a workload (traffic.* off estimate-live, serve.* on train) reads 0.
var perLayerMetrics = []metricSpec{
	{"harness.fixture_s", "s"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.first_p99_ms", "ms"},
	{"harness.second_p99_ms", "ms"},
	{"harness.slice_iqr_pct", "%"},

	{"roadnet.build_city_s", "s"},
	{"citysim.grid_s", "s"},
	{"mapmatch.new_s", "s"},
	{"core.load_checkpoint_s", "s"},
	{"infer.new_s", "s"},
	{"serve.warm_s", "s"},

	{"serve.transport_us", "us"},
	{"serve.handle_us", "us"},
	{"serve.self_us", "us"},
	{"serve.external_prior_us", "us"},
	{"serve.probes_handle_us", "us"},
	{"serve.probes_self_us", "us"},

	{"infer.do_us", "us"},
	{"infer.queue_wait_us", "us"},
	{"infer.self_us", "us"},
	{"infer.batch_mean", "count"},
	{"infer.fused_share", "share"},
	{"infer.cache_hit_share", "share"},
	{"infer.shed_share", "share"},

	{"mapmatch.match_od_us", "us"},
	{"mapmatch.advance_us_per_probe", "us"},

	{"traffic.ingest_call_us", "us"},
	{"traffic.external_us", "us"},
	{"traffic.live_share", "share"},
	{"traffic.probe_shed_share", "share"},
	{"traffic.out_of_order_share", "share"},
	{"traffic.epochs", "count"},
	{"traffic.coverage", "share"},
	{"traffic.drain_s", "s"},

	{"core.estimate_us", "us"},
	{"core.estimate_noext_us", "us"},
	{"core.external_head_us", "us"},
	{"core.fused_us_per_od", "us"},
	{"core.embed_s", "s"},
	{"core.optim_s", "s"},
	{"core.step_ms", "ms"},
	{"core.samples_seen", "count"},
	{"core.final_val_mae", "s"},
	{"core.speedup_2w", "ratio"},
}

var workloads = []string{"estimate-cold", "estimate-hot", "estimate-live", "train"}

// result accumulates one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	log       io.Writer
}

// fail marks the run incorrect and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(r.log, "bench: INCORRECT: "+format+"\n", args...)
}

func (r *result) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "bench: "+format+"\n", args...)
}

// reported is the wire form of one metric.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// render selects the metric set of the run's mode. An end-to-end metric
// the workload failed to produce is a harness bug, not a zero.
func (r *result) render(traced bool) (line, error) {
	specs := endToEndMetrics
	if traced {
		specs = perLayerMetrics
	}
	out := line{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]reported{}}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok && !traced {
			return out, fmt.Errorf("workload reported no %s", s.name)
		}
		out.Metrics[s.name] = reported{Value: v, Unit: s.unit}
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of estimate-cold, estimate-hot, estimate-live, train")
	seed := fs.Int64("seed", 1, "seed every input is generated from (2 is held out for later claims)")
	seconds := fs.Float64("seconds", 18, "how long the run measures, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	compare := fs.Bool("compare", false, "compare two result sets: -compare dirA dirB, each holding <workload>.jsonl of untraced result lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result directories")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// A run executes on one P. The sandbox's two vCPUs are not two cores
	// the program can count on: its kernel leaves two runnable threads on one
	// of them for hundreds of milliseconds while the other idles, and the
	// hypervisor takes either away at will, so whatever needs both at once
	// (a request handed from the client's thread to the server's, a batch
	// sharded over two training workers) is timed by their scheduling, 30-70 %
	// apart from one run to the next. On one P every hand-over is a goroutine
	// switch and what is measured is the program's own work on a core; the
	// traced `train` run alone raises it again, to report core.speedup_2w.
	env := benchmeta.Capture()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &result{correct: true, metrics: map[string]float64{}, log: stderr}
	res.logf("%s seed %d, %.3g s, trace %d, GOMAXPROCS 1 (default %d, %d CPUs), %s",
		*workload, *seed, *seconds, *trace, env.GOMAXPROCS, env.CPUs, env.GoVersion)
	var err error
	switch *workload {
	case "estimate-cold", "estimate-hot", "estimate-live":
		err = runEstimate(*workload, *seed, *seconds, *trace == 1, res)
	case "train":
		err = runTrain(*seed, *seconds, *trace == 1, res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out, err := res.render(*trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
