// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks the workload's outputs, and prints
// as its last line a JSON object with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run, --trace 1).
//
//	go run . --workload scale-51k --seed 1 --seconds 20 --trace 0
//
// It is run from the root of a checkout (run.sh builds it and polyserve
// there). All timing is taken here, around calls into the program's
// public functions; nothing inside the program is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// buildDir holds everything a run leaves behind in the checkout: the
// binaries run.sh builds, checkpoint directories, grid results and span
// files.
const buildDir = ".bench_build"

// workload runs one named workload and fills res. A returned error is a
// failed run; output checks that do not hold are errors.
type workload func(cfg runConfig, res *result) error

var workloads = map[string]workload{
	"scale-51k":    runScale,
	"grid-800":     runGrid,
	"serve-phases": runServe,
}

type runConfig struct {
	name    string
	seed    uint64
	seconds int
	trace   bool
}

func main() {
	var cfg runConfig
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.name, "workload", "", "workload name: scale-51k, grid-800 or serve-phases")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measurement budget in seconds")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: report per-layer metrics")
	if err := fs.Parse(normalizeBoolFlags(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[cfg.name]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", cfg.name, cfg.seconds)
		os.Exit(2)
	}
	res := newResult()
	fmt.Println("# stamp", stampJSON(cfg))
	err := run(cfg, res)
	if err == nil {
		want := endToEnd
		if cfg.trace {
			want = perLayer
		}
		err = res.keepOnly(want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.correct = false
	}
	fmt.Println(res.line())
	if !res.correct {
		os.Exit(1)
	}
}

// normalizeBoolFlags turns "--trace 0|1" into "--trace=false|true": the
// flag package reads a bare boolean flag's next word as a positional.
func normalizeBoolFlags(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// endToEnd lists, with their units, the metrics an untraced run reports,
// and perLayer those a traced run reports; BENCHMARK.json names the same
// metrics. Every workload reports every metric of its list, each taken
// from its own work. A figure that only one workload can measure is
// printed as a "# note" line instead (see note).
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"rounds_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

var perLayer = []metricName{
	{"rps.pass_ms.calm", "ms"}, {"rps.pass_ms.recovery", "ms"},
	{"tman.pass_ms.calm", "ms"}, {"tman.pass_ms.recovery", "ms"},
	{"core.pass_ms.calm", "ms"}, {"core.pass_ms.recovery", "ms"},
	{"space.distance_ns", "ns"},
	{"sim.round_ms.calm", "ms"}, {"sim.round_ms.recovery", "ms"},
	{"sim.batch_speedup", "ratio"}, {"sim.plan_overhead", "ratio"},
	{"metrics.homogeneity_ms.calm", "ms"}, {"metrics.homogeneity_ms.recovery", "ms"},
	{"metrics.proximity_ms", "ms"}, {"metrics.reliability_ms", "ms"},
	{"metrics.datapoints_ms", "ms"}, {"metrics.orphan_points", "points"},
	{"snap.encode_ms", "ms"}, {"snap.decode_ms", "ms"}, {"snap.bytes", "bytes"},
	{"snap.alloc_mb.save", "MB"}, {"snap.alloc_mb.restore", "MB"},
	{"ckpt.write_ms", "ms"}, {"ckpt.open_ms", "ms"},
	{"serve.capture_ms", "ms"}, {"serve.capture_alloc_mb", "MB"},
	{"serve.lookup_us", "us"}, {"serve.neighbors_us", "us"}, {"serve.http_us", "us"},
	{"serve.lookup_exact_ratio", "ratio"},
	{"scenario.new_ms", "ms"},
	{"tman.units_per_node", "units"}, {"core.units_per_node", "units"},
	{"core.points_per_node", "points"},
	{"go.gc_cpu_frac", "ratio"}, {"go.alloc_mb_per_round", "MB"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

type metricName struct{ name, unit string }

// keepOnly reduces the result to the metrics of want, which a correct
// run reports in full and in the listed units. A traced run measures
// end-to-end figures in passing and an untraced one may measure layer
// figures; both are dropped here.
func (r *result) keepOnly(want []metricName) error {
	kept := make(map[string]metric, len(want))
	var missing []string
	for _, w := range want {
		m, ok := r.metrics[w.name]
		switch {
		case !ok:
			missing = append(missing, w.name)
		case m.Unit != w.unit:
			return fmt.Errorf("metric %s measured in %s, want %s", w.name, m.Unit, w.unit)
		default:
			kept[w.name] = m
		}
	}
	r.metrics = kept
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	return nil
}

// note prints a figure that is not a manifest metric: one only some
// workloads measure, or one too noisy to bound. It is read as data by a
// person comparing runs, not by the regression check.
func note(name, unit string, v float64) {
	fmt.Printf("# note %s %.6g %s\n", name, v, unit)
}

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// line renders the result; a run is correct only if every check held,
// no operation failed and every metric is a number.
func (r *result) line() string {
	r.correct = r.correct && r.failed == 0
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", n, m.Value)
			delete(r.metrics, n)
		}
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.failed = 1
		r.correct = false
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	b, _ := json.Marshal(out) // bools, ints and finite floats always marshal
	return string(b)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
