package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// paperIDs are the seven sweeps behind `rtexp -exp paper`.
var paperIDs = []string{"mm-rate", "mm-variance", "mm-dbsize", "mm-weight", "disk-rate", "disk-dbsize", "disk-weight"}

// pinnedDigest is the SHA-256 of the rendered paper tables at seed 1 (the
// paper's own seeds), taken from the reproduction as first benchmarked.
// A kernel change that alters any table cell changes it.
const pinnedDigest = "cf0ef5543b373f8787e5718a4496b85aacf9afb7496939daefad87032758605d"

// sweepsPerRun is how many whole timed sweeps an untraced run measures.
// A sweep is the workload's unit of work (about 9–12 s on a 2-CPU host),
// so this, not -seconds, sets the run's length.
const sweepsPerRun = 3

// seedStride separates the per-run seeds of two benchmark seeds: benchmark
// seed s runs the paper's seed k as (s-1)*seedStride + k, so seed 1 is the
// paper's own schedule and other seeds never share a run.
const seedStride = 1000

// paperDefs returns the seven sweep definitions with every variant's
// Configure wrapped to shift its run seed by the benchmark seed.
func paperDefs(seed int64) []experiment.Definition {
	shift := (seed - 1) * seedStride
	defs := make([]experiment.Definition, 0, len(paperIDs))
	for _, id := range paperIDs {
		d, ok := experiment.ByID(id)
		if !ok {
			panic("perfbench: unknown experiment " + id)
		}
		vs := make([]experiment.Variant, len(d.Variants))
		for i, v := range d.Variants {
			conf := v.Configure
			vs[i] = experiment.Variant{Name: v.Name, Configure: func(x float64, s int64) core.Config {
				return conf(x, s+shift)
			}}
		}
		d.Variants = vs
		defs = append(defs, d)
	}
	return defs
}

// cellKey names one seed run of one sweep cell.
type cellKey struct {
	d, x, v int
	seed    int64
}

// oracleSubset is the fixed set of runs re-executed under the safety
// oracle with history recording: seed 1 of every variant at each
// sweep's first and last point.
func oracleSubset(defs []experiment.Definition) []cellKey {
	var keys []cellKey
	for d, def := range defs {
		for _, x := range []int{0, len(def.Xs) - 1} {
			for v := range def.Variants {
				keys = append(keys, cellKey{d, x, v, 1})
			}
		}
	}
	return keys
}

func renderTables(results []*experiment.Result) string {
	var b strings.Builder
	for _, r := range results {
		for _, t := range r.Tables() {
			b.WriteString(t.Text())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// sweepRun is one timed pass over the seven sweeps through experiment.Run.
type sweepRun struct {
	wall    time.Duration
	defWall []time.Duration // per definition
	defCPU  []time.Duration // per definition
	peakKB  int64           // VmHWM reached during the sweep
	runs    int
	failed  int
	txns    int64
	inTime  int64
	cellMs  map[cellKey]float64 // summed Engine.Run wall time per cell (seed 0)
	tables  string
	subsets map[cellKey]metrics.Result
}

func cellQuantile(cells map[cellKey]float64, q float64) float64 {
	xs := make([]float64, 0, len(cells))
	for _, v := range cells {
		xs = append(xs, v)
	}
	return quantile(xs, q)
}

// sweep runs every definition through experiment.Run. The Instrument and
// Inspect hooks time each Engine.Run and keep the results of the oracle
// subset for comparison.
func sweep(defs []experiment.Definition, workers int, subset []cellKey) (*sweepRun, error) {
	want := make(map[cellKey]bool, len(subset))
	for _, k := range subset {
		want[k] = true
	}
	sr := &sweepRun{cellMs: make(map[cellKey]float64), subsets: make(map[cellKey]metrics.Result)}
	// Reset VmHWM (Linux clear_refs code 5) so the sweep's own peak is read.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	var mu sync.Mutex
	started := make(map[cellKey]time.Time)
	results := make([]*experiment.Result, 0, len(defs))
	t0 := time.Now()
	for d := range defs {
		d := d
		opt := experiment.Options{
			Workers: workers,
			Instrument: func(xi, vi int, seed int64, _ *core.Engine) {
				now := time.Now()
				mu.Lock()
				started[cellKey{d, xi, vi, seed}] = now
				mu.Unlock()
			},
			Inspect: func(xi, vi int, seed int64, _ *core.Engine, res metrics.Result) error {
				now := time.Now()
				k := cellKey{d, xi, vi, seed}
				n := int64(res.Committed + res.Dropped + res.Rejected)
				mu.Lock()
				defer mu.Unlock()
				sr.runs++
				sr.cellMs[cellKey{d, xi, vi, 0}] += ms(now.Sub(started[k]))
				delete(started, k)
				sr.txns += n
				sr.inTime += int64(float64(n)*(100-res.MissPercent)/100 + 0.5)
				if want[k] {
					sr.subsets[k] = res
				}
				return nil
			},
		}
		dcpu, dt := selfCPU(), time.Now()
		r, err := experiment.Run(context.Background(), defs[d], opt)
		if err != nil {
			return nil, err
		}
		sr.defWall = append(sr.defWall, time.Since(dt))
		sr.defCPU = append(sr.defCPU, selfCPU()-dcpu)
		sr.failed += len(r.Failures)
		results = append(results, r)
	}
	sr.wall = time.Since(t0)
	sr.runs += sr.failed
	sr.tables = renderTables(results)
	peak, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	sr.peakKB = peak.hwmKB
	return sr, nil
}

// cellRun is one run of the benchmark's own cell loop.
type cellRun struct {
	res                    metrics.Result
	gen, build, run        time.Duration
	allocBytes, allocCount uint64
}

// runCells executes every seed run of defs by calling the kernel's entry
// points directly — workload.GenerateFaulted, core.NewWithWorkload and
// Engine.Run — so each can be timed. It reproduces experiment.Run's
// per-run configuration (no overrides), and its tables must match.
// With tr set it records a cell span with one child per call; with mem
// set (one worker only) it measures heap allocation around new + run.
func runCells(defs []experiment.Definition, workers int, tr *tracer, mem bool) ([][][][]cellRun, error) {
	out := make([][][][]cellRun, len(defs))
	var jobs []cellKey
	for d, def := range defs {
		out[d] = make([][][]cellRun, len(def.Xs))
		for x := range def.Xs {
			out[d][x] = make([][]cellRun, len(def.Variants))
			for v := range def.Variants {
				out[d][x][v] = make([]cellRun, def.Seeds)
				for s := 1; s <= def.Seeds; s++ {
					jobs = append(jobs, cellKey{d, x, v, int64(s)})
				}
			}
		}
	}
	ch := make(chan cellKey)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ch {
				if errs[w] != nil {
					continue
				}
				cr, err := runCell(defs, k, tr, mem)
				if err != nil {
					errs[w] = err
					continue
				}
				out[k.d][k.x][k.v][k.seed-1] = cr
			}
		}(w)
	}
	for _, k := range jobs {
		ch <- k
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runCell(defs []experiment.Definition, k cellKey, tr *tracer, mem bool) (cellRun, error) {
	def := &defs[k.d]
	cfg := def.Variants[k.v].Configure(def.Xs[k.x], k.seed)
	var cr cellRun
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	wl, err := workload.GenerateFaulted(cfg.Workload, cfg.Seed, cfg.Fault.Bursts)
	if err != nil {
		return cr, err
	}
	if mem {
		runtime.ReadMemStats(&m0)
	}
	t1 := time.Now()
	e, err := core.NewWithWorkload(cfg, wl)
	if err != nil {
		return cr, err
	}
	t2 := time.Now()
	res, err := e.Run()
	t3 := time.Now()
	if err != nil {
		return cr, fmt.Errorf("%s %s x=%v seed %d: %w", def.ID, def.Variants[k.v].Name, def.Xs[k.x], k.seed, err)
	}
	if mem {
		runtime.ReadMemStats(&m1)
		cr.allocBytes, cr.allocCount = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	cr.res, cr.gen, cr.build, cr.run = res, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if tr != nil {
		id := tr.id()
		attrs := map[string]string{
			"sweep": def.ID, "variant": def.Variants[k.v].Name,
			"x": fmt.Sprint(def.Xs[k.x]), "seed": fmt.Sprint(cfg.Seed),
		}
		tr.add(
			span{Trace: id, ID: id, Name: "cell", Start: tr.ns(t0), End: tr.ns(t3), Attrs: attrs},
			span{Trace: id, Parent: id, Name: "workload.generate", Start: tr.ns(t0), End: tr.ns(t1)},
			span{Trace: id, Parent: id, Name: "core.new", Start: tr.ns(t1), End: tr.ns(t2)},
			span{Trace: id, Parent: id, Name: "core.run", Start: tr.ns(t2), End: tr.ns(t3)},
		)
	}
	return cr, nil
}

// cellTables folds cell runs in seed order, as experiment.Run does, and
// renders the tables.
func cellTables(defs []experiment.Definition, cells [][][][]cellRun) string {
	results := make([]*experiment.Result, len(defs))
	for d := range defs {
		r := &experiment.Result{Def: &defs[d]}
		for x := range cells[d] {
			aggs := make([]*metrics.Aggregate, len(cells[d][x]))
			conv := make([]bool, len(cells[d][x]))
			for v, runs := range cells[d][x] {
				aggs[v] = &metrics.Aggregate{}
				for _, cr := range runs {
					aggs[v].Add(cr.res)
				}
				conv[v] = true
			}
			r.Agg = append(r.Agg, aggs)
			r.Converged = append(r.Converged, conv)
		}
		results[d] = r
	}
	return renderTables(results)
}

// setupSelf spawns the benchmark binary with -setup-probe n times and
// returns the median time from spawn to its ready line: process start to
// the first timed operation of a paper sweep.
func setupSelf(seed int64, n int) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-probe", "-seed", fmt.Sprint(seed))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || werr != nil || !strings.HasPrefix(line, "ready ") {
			return 0, fmt.Errorf("setup probe: %q %v %v", line, rerr, werr)
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(quantile(xs, 0.5)), nil
}

func runPaperSweep(e *env) (*outcome, error) {
	o := &outcome{Correct: true}
	workers := runtime.NumCPU()
	setup, err := setupSelf(e.seed, setupSpawns)
	if err != nil {
		return nil, err
	}
	defs := paperDefs(e.seed)
	subset := oracleSubset(defs)

	var timed *sweepRun // the first untraced sweep
	var sweeps []*sweepRun
	var traced [][][][]cellRun
	var tracedWall time.Duration
	tr := newTracer(time.Now())
	if e.trace {
		t0 := time.Now()
		traced, err = runCells(defs, workers, tr, false)
		if err != nil {
			return nil, err
		}
		tracedWall = time.Since(t0)
		// The untraced reference for trace.overhead_pct.
		if timed, err = sweep(defs, workers, subset); err != nil {
			return nil, err
		}
	} else {
		// Host noise moves single sweeps by several percent, so each
		// end-to-end figure is the median over whole timed sweeps.
		for i := 0; i < sweepsPerRun; i++ {
			sr, err := sweep(defs, workers, subset)
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, sr)
		}
		timed = sweeps[0]
		for i, sr := range sweeps[1:] {
			if sr.tables != timed.tables {
				o.problem("timed sweeps %d and 1 rendered different tables", i+2)
			}
		}
	}
	o.Attempted, o.Failed = timed.runs, timed.failed
	if timed.failed > 0 {
		o.problem("%d sweep runs failed", timed.failed)
	}
	fmt.Fprintf(e.log, "paper-sweep: %d runs, %d transactions in %v\n", timed.runs, timed.txns, timed.wall.Round(time.Millisecond))

	// Output checks: an untimed single-worker rerun renders the same
	// bytes, seed 1 matches the pinned digest, and a fixed subset of runs
	// is serializable under the oracle and unchanged by it.
	var serial [][][][]cellRun
	if e.trace {
		if serial, err = runCells(defs, 1, nil, true); err != nil {
			return nil, err
		}
		if got := cellTables(defs, traced); got != timed.tables {
			o.problem("traced cell loop rendered different tables from experiment.Run")
		}
		if got := cellTables(defs, serial); got != timed.tables {
			o.problem("single-worker rerun rendered different tables")
		}
	} else {
		w1, err := sweep(defs, 1, nil)
		if err != nil {
			return nil, err
		}
		if w1.tables != timed.tables {
			o.problem("single-worker rerun rendered different tables")
		}
	}
	got := digest(timed.tables)
	fmt.Fprintf(e.log, "paper-sweep: tables sha256 %s\n", got)
	if e.seed == 1 && got != pinnedDigest {
		o.problem("seed-1 tables digest %s, pinned %s", got, pinnedDigest)
	}
	if err := checkOracle(defs, subset, timed.subsets, workers); err != nil {
		o.problem("%v", err)
	}

	txns := float64(timed.txns)
	if !e.trace {
		o.add("setup_s", setup.Seconds(), "s", "")
		// Medians are taken per definition (about 1.5 s of work each) and
		// per cell, then summed, so a contention episode shorter than a
		// sweep moves at most one of the three samples of each part.
		med := func(f func(sr *sweepRun) float64) float64 {
			xs := make([]float64, len(sweeps))
			for i, sr := range sweeps {
				xs[i] = f(sr)
			}
			return quantile(xs, 0.5)
		}
		var wall, cpu float64
		for d := range defs {
			wall += med(func(sr *sweepRun) float64 { return sr.defWall[d].Seconds() })
			cpu += med(func(sr *sweepRun) float64 { return us(sr.defCPU[d]) })
		}
		// A cell sums one configuration over many seeds, so which cell is
		// the median, and its time, barely depend on the benchmark seed;
		// the median over single runs jumps between the sweep's modes.
		cellMs := make(map[cellKey]float64, len(timed.cellMs))
		for k := range timed.cellMs {
			cellMs[k] = med(func(sr *sweepRun) float64 { return sr.cellMs[k] })
		}
		o.add("sweep_s", wall, "s", "")
		o.add("p50_ms", cellQuantile(cellMs, 0.5), "ms", "")
		o.add("goodput_tps", float64(timed.inTime)/wall, "txn/s", "")
		o.add("cpu_us_per_txn", cpu/txns, "us", "")
		o.add("peak_rss_mb", med(func(sr *sweepRun) float64 { return float64(sr.peakKB) / 1024 }), "MB", "")
		return o, nil
	}

	var gen, build, runT, busy time.Duration
	var restarts int
	var allocB, allocN uint64
	for d := range traced {
		for x := range traced[d] {
			for v := range traced[d][x] {
				for s, cr := range traced[d][x][v] {
					gen, build, runT = gen+cr.gen, build+cr.build, runT+cr.run
					restarts += cr.res.Restarts
					allocB += serial[d][x][v][s].allocBytes
					allocN += serial[d][x][v][s].allocCount
				}
			}
		}
	}
	busy = gen + build + runT
	vals := map[string]float64{
		"workload.generate_us_per_txn": us(gen) / txns,
		"core.new_us_per_txn":          us(build) / txns,
		"core.run_us_per_txn":          us(runT) / txns,
		"core.alloc_bytes_per_txn":     float64(allocB) / txns,
		"core.allocs_per_txn":          float64(allocN) / txns,
		"core.restarts_per_txn":        float64(restarts) / txns,
		"experiment.busy_ratio":        float64(busy) / (float64(workers) * float64(tracedWall)),
		"trace.overhead_pct":           100 * (float64(tracedWall) - float64(timed.wall)) / float64(timed.wall),
		"p99_ms":                       cellQuantile(timed.cellMs, 0.99),
	}
	path, err := tr.write(filepath.Join(e.build, "spans"), fmt.Sprintf("paper-sweep-seed%d.jsonl", e.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "paper-sweep: traced sweep %v, untraced %v; spans in %s\n",
		tracedWall.Round(time.Millisecond), timed.wall.Round(time.Millisecond), path)
	emitLayers(o, e, vals)
	return o, nil
}

// checkOracle re-runs the subset under the safety oracle with history
// recording: each run must pass the oracle, commit a conflict-serializable
// history, and produce the same result as its timed run.
func checkOracle(defs []experiment.Definition, subset []cellKey, timed map[cellKey]metrics.Result, workers int) error {
	ch := make(chan cellKey)
	errs := make(chan error, len(subset))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				errs <- oracleRun(defs, k, timed)
			}
		}()
	}
	for _, k := range subset {
		ch <- k
	}
	close(ch)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func oracleRun(defs []experiment.Definition, k cellKey, timed map[cellKey]metrics.Result) error {
	def := &defs[k.d]
	cfg := def.Variants[k.v].Configure(def.Xs[k.x], k.seed)
	cfg.RecordHistory = true
	name := fmt.Sprintf("%s %s x=%v seed %d", def.ID, def.Variants[k.v].Name, def.Xs[k.x], cfg.Seed)
	e, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("oracle run %s: %w", name, err)
	}
	e.EnableOracle()
	res, err := e.Run()
	if err != nil {
		return fmt.Errorf("oracle run %s: %w", name, err)
	}
	if ok, cycle := e.History().Serializable(); !ok {
		return fmt.Errorf("oracle run %s: history not serializable, cycle %v", name, cycle)
	}
	if want, ok := timed[k]; !ok || !reflect.DeepEqual(res, want) {
		return fmt.Errorf("oracle run %s: result differs from the timed run", name)
	}
	return nil
}
