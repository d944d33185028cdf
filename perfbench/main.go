// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one of three workloads:
//
//   - paper-sweep: the seven sweeps behind `rtexp -exp paper`, in virtual
//     time through experiment.Run, at the paper's seed counts. All of the
//     work is in the kernel (workload generation, pre-analysis, dispatch,
//     conflict index, lock manager, calendar, disk model).
//   - serve-wire: rtserve with its defaults and -dbsize 4096, driven over
//     the binary wire protocol by an open-loop Poisson generator at
//     10 000 req/s of 2-item writes. The per-request serving path does
//     most of the work.
//   - serve-durable: rtserve -shards 2 -wal-dir with -dbsize 65536 at
//     3 000 req/s of 4-item single-home-shard writes. Every answer waits
//     for a WAL fsync and passes through shard routing.
//
// With -trace 0 it prints the end-to-end metrics of every workload:
//
//   - setup_s: process start to the first timed operation, median of 11
//     starts (the benchmark binary itself for paper-sweep; rtserve until
//     both listeners answer a health probe for serving).
//   - sweep_s: paper-sweep, the wall time of one whole sweep; serving, the
//     wall time from the window's start until the last request due in it
//     is answered.
//   - p50_ms: serving, the median latency from each request's due time to
//     its answer, a failed or lost request counting as the client timeout;
//     paper-sweep, the median over the sweep's cells (one point of one
//     variant) of the cell's Engine.Run wall time summed over its seeds.
//   - goodput_tps: transactions committed within their deadline per wall
//     second (serving: measured by the client from the due time).
//   - cpu_us_per_txn: CPU time of the program under test per transaction
//     (rtserve per committed transaction; the benchmark process per
//     simulated transaction).
//   - peak_rss_mb: VmHWM of the program under test (paper-sweep: reset
//     before each sweep).
//
// paper-sweep times three whole sweeps and sums, over the seven sweep
// definitions, each one's median time (p50_ms: each cell's median);
// serving reports p50_ms and cpu_us_per_txn as the median over 2 s
// sub-windows. Both filter contention episodes on a shared host. p99_ms is
// reported only by the traced run: it does not repeat within a tenth.
//
// With -trace 1 it prints the per-layer metrics, measured from outside the
// program by timing calls into each layer's public functions and by
// sampling the counters a running rtserve exposes, and writes the run's
// spans to .bench_build/spans. Every run checks the workload's outputs.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the repository root, which builds
// this program and rtserve from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure. Moves says which end-to-end metric a
// per-layer metric should move, and on which workloads; it is printed in
// the human-readable listing only.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Moves string
}

// outcome is what a workload run reports.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Problems  []string
	Metrics   []metric
}

func (o *outcome) problem(format string, args ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *outcome) add(name string, v float64, unit, moves string) {
	o.Metrics = append(o.Metrics, metric{Name: name, Value: v, Unit: unit, Moves: moves})
}

// env carries the run's parameters to the workloads.
type env struct {
	build    string // <checkout root>/.bench_build
	workload string
	seed     int64
	seconds  int
	trace    bool
	log      io.Writer
	// sleepUS is host.sleep_100us_us, measured once before the workload.
	sleepUS float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root       = fs.String("root", ".", "repository checkout root")
		workload   = fs.String("workload", "", "paper-sweep, serve-wire or serve-durable")
		seed       = fs.Int64("seed", 1, "input seed (paper-sweep: seed 1 runs the paper's own seeds)")
		seconds    = fs.Int("seconds", 10, "length of the timed window")
		traceFlag  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		setupProbe = fs.Bool("setup-probe", false, "internal: build the paper-sweep definitions, print ready and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *setupProbe {
		defs := paperDefs(*seed)
		fmt.Fprintf(stdout, "ready %d\n", len(defs))
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{
		build:    filepath.Join(abs, ".bench_build"),
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *traceFlag == 1, log: stderr, sleepUS: sleepOvershoot(),
	}

	var o *outcome
	switch *workload {
	case "paper-sweep":
		o, err = runPaperSweep(e)
	case "serve-wire", "serve-durable":
		o, err = runServe(e, serveSpecs[*workload])
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-sweep, serve-wire or serve-durable)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := report(e, o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints the host fingerprint, the metric listing and the final
// JSON line.
func report(e *env, o *outcome, w io.Writer) error {
	host := fingerprint(e)
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(hb))
	for _, p := range o.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	mode := "end-to-end"
	if e.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "%s metrics, workload %s, seed %d, %ds window:\n", mode, e.workload, e.seed, e.seconds)
	out := make(map[string]map[string]any, len(o.Metrics))
	for _, m := range o.Metrics {
		line := fmt.Sprintf("  %-32s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.Moves != "" {
			line += "  " + m.Moves
		}
		fmt.Fprintln(w, line)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	final, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(final))
	return nil
}

// fingerprint describes the host a result was measured on.
func fingerprint(e *env) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"cpu_model":           cpu,
		"num_cpu":             runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"kernel":              kernel,
		"wal_fs":              fsType(e.build),
		"host.sleep_100us_us": e.sleepUS,
	}
}

// sleepOvershoot is the median wall time, in µs, of a 100 µs time.Sleep:
// the timer granularity that floors both the load generator and the
// engine's wall-clock driver.
func sleepOvershoot() float64 {
	xs := make([]float64, 25)
	for i := range xs {
		t := time.Now()
		time.Sleep(100 * time.Microsecond)
		xs[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by nearest rank (0 for an empty
// slice). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
