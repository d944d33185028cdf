package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// serveSpec is one serving workload: the rtserve configuration and the
// open-loop traffic that drives it.
type serveSpec struct {
	name     string
	rate     float64 // requests per second, Poisson
	items    int     // writes per request, all on one home shard
	compute  time.Duration
	deadline time.Duration
	dbsize   int
	shards   int
	wal      bool
}

var serveSpecs = map[string]serveSpec{
	"serve-wire":    {"serve-wire", 10000, 2, 10 * time.Microsecond, 5 * time.Millisecond, 4096, 1, false},
	"serve-durable": {"serve-durable", 3000, 4, 20 * time.Microsecond, 20 * time.Millisecond, 65536, 2, true},
}

// warmup is the load before the first timed window.
const warmup = 2 * time.Second

// setupSpawns is how many times a run starts the program under test to
// measure setup_s, which reports the median; for serving, the last start
// serves the load.
const setupSpawns = 11

// lostTimeout bounds the wait for an answer after the last send; a
// request still unanswered then is lost. It also stands in as the latency
// of a failed request, which misses every limit.
func (s serveSpec) lostTimeout() time.Duration {
	if d := 200 * s.deadline; d > time.Second {
		return d
	}
	return time.Second
}

// traffic is a generated request stream: due offsets from the schedule's
// origin and each request's items.
type traffic struct {
	due   []time.Duration
	items []txn.Item // len(due) * spec.items
	m     int
}

func (t *traffic) req(k int) []txn.Item { return t.items[k*t.m : (k+1)*t.m] }

// genTraffic draws an absolute Poisson schedule of length d at spec.rate
// from seed. Each request writes spec.items distinct items drawn
// uniformly from one home shard, itself drawn uniformly.
func genTraffic(spec serveSpec, seed int64, d time.Duration) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{m: spec.items}
	perShard := spec.dbsize / spec.shards
	var at float64
	for {
		at += rng.ExpFloat64() / spec.rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return t
		}
		t.due = append(t.due, due)
		home := rng.Intn(spec.shards)
		start := len(t.items)
	pick:
		for len(t.items) < start+spec.items {
			it := txn.Item(rng.Intn(perShard)*spec.shards + home)
			for _, prev := range t.items[start:] {
				if prev == it {
					continue pick
				}
			}
			t.items = append(t.items, it)
		}
	}
}

// rtserve is a running server process.
type rtserve struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	walDir   string
	mu       sync.Mutex
	log      strings.Builder
	eof      chan struct{}
	exited   bool
	exitErr  error
}

// startServer spawns rtserve and waits until both listeners answer a
// health probe, returning the time from spawn to healthy.
func startServer(e *env, spec serveSpec, walDir string) (*rtserve, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-dbsize", fmt.Sprint(spec.dbsize)}
	if spec.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(spec.shards))
	}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	s := &rtserve{walDir: walDir, eof: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(e.build, "bin", "rtserve"), args...)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	addrs := make(chan [2]string, 1)
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		defer close(s.eof)
		var httpAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			l := sc.Text()
			s.mu.Lock()
			s.log.WriteString(l + "\n")
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(l, "rtserve: serving "); ok {
				_, a, _ := strings.Cut(rest, " on ")
				httpAddr, _, _ = strings.Cut(a, " ")
			}
			if _, a, ok := strings.Cut(l, "rtserve: wire protocol on "); ok {
				addrs <- [2]string{httpAddr, a}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addrs:
		s.httpAddr, s.wireAddr = a[0], a[1]
	case <-s.eof:
		s.stop()
		return nil, 0, fmt.Errorf("rtserve exited during start-up:\n%s", s.stderr())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("rtserve did not report its listeners:\n%s", s.stderr())
	}
	for {
		err := s.healthy()
		if err == nil {
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("rtserve not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// healthy probes both listeners.
func (s *rtserve) healthy() error {
	resp, err := httpClient.Get("http://" + s.httpAddr + "/healthz")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		return fmt.Errorf("healthz %d %q", resp.StatusCode, body)
	}
	c, err := wire.Dial(s.wireAddr, time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	h, err := c.Health()
	if err != nil {
		return err
	}
	if !h.Healthy {
		return fmt.Errorf("wire health: %s", h.Err)
	}
	return nil
}

func (s *rtserve) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// stop drains the server with SIGTERM and waits for it to exit; past 30
// seconds it is killed. It returns the exit error.
func (s *rtserve) stop() error {
	if s.exited {
		return s.exitErr
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.eof:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.eof
	}
	s.exited, s.exitErr = true, s.cmd.Wait()
	return s.exitErr
}

func (s *rtserve) kill() {
	if s.exited {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.eof
	s.exited, s.exitErr = true, s.cmd.Wait()
}

// counters is one sample of what a running rtserve exposes.
type counters struct {
	proc procSample
	mem  struct{ TotalAlloc, Mallocs, NumGC uint64 }
	eng  struct{ Committed, Restarts, Rejected int64 }
	wal  struct{ Submits, Outcomes, Syncs, Bytes uint64 }
	live int
}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sample reads /metrics, /debug/vars memstats and /proc/<pid>.
func (s *rtserve) sample() (counters, error) {
	var c counters
	var m struct {
		Engine *struct {
			Committed int64 `json:"committed"`
			Restarts  int64 `json:"restarts"`
			Rejected  int64 `json:"rejected"`
		} `json:"engine"`
		Live int `json:"live"`
		WAL  *struct {
			Submits  uint64 `json:"submits"`
			Outcomes uint64 `json:"outcomes"`
			Syncs    uint64 `json:"syncs"`
			Bytes    uint64 `json:"bytes"`
		} `json:"wal"`
	}
	if err := getJSON("http://"+s.httpAddr+"/metrics", &m); err != nil {
		return c, err
	}
	if m.Engine != nil {
		c.eng.Committed, c.eng.Restarts, c.eng.Rejected = m.Engine.Committed, m.Engine.Restarts, m.Engine.Rejected
	}
	if m.WAL != nil {
		c.wal.Submits, c.wal.Outcomes, c.wal.Syncs, c.wal.Bytes = m.WAL.Submits, m.WAL.Outcomes, m.WAL.Syncs, m.WAL.Bytes
	}
	c.live = m.Live
	var vars struct {
		Memstats struct{ TotalAlloc, Mallocs, NumGC uint64 } `json:"memstats"`
	}
	if err := getJSON("http://"+s.httpAddr+"/debug/vars", &vars); err != nil {
		return c, err
	}
	c.mem = vars.Memstats
	var err error
	c.proc, err = readProc(s.cmd.Process.Pid)
	return c, err
}

// reqRec is the client's record of one request. The connection's writer
// stores sent; its reader owns every other field.
type reqRec struct {
	sent    atomic.Int64 // ns since origin
	recv    int64
	resp    int64 // engine response time, ns
	seq     uint64
	status  uint8
	missed  bool
	answers uint8
}

// loadResult is what driving the traffic produced.
type loadResult struct {
	origin  time.Time
	recs    []reqRec
	notSent int
	unknown int
	dups    int
	lost    int
	spans   []span
	samples []counters // one per sampleAt offset
	errs    []error
}

// drive sends tr over nconn wire connections on its absolute schedule
// and collects every answer. Counters are sampled at each offset in
// sampleAt; spans are recorded for requests due at or after traceFrom
// (negative: none).
func drive(srv *rtserve, spec serveSpec, tr *traffic, nconn int, sampleAt []time.Duration, traceFrom time.Duration, trc *tracer) (*loadResult, error) {
	n := len(tr.due)
	lr := &loadResult{recs: make([]reqRec, n), samples: make([]counters, len(sampleAt))}
	conns := make([]net.Conn, nconn)
	for c := range conns {
		nc, err := net.DialTimeout("tcp", srv.wireAddr, 5*time.Second)
		if err != nil {
			for _, o := range conns[:c] {
				o.Close()
			}
			return nil, err
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		conns[c] = nc
	}
	var answered atomic.Int64
	var mu sync.Mutex // guards the counts and errs below
	var writers, readers, samplers sync.WaitGroup
	lr.origin = time.Now().Add(10 * time.Millisecond)
	origin := lr.origin
	connSpans := make([][]span, nconn)
	for c, nc := range conns {
		c, nc := c, nc
		readers.Add(1)
		go func() {
			defer readers.Done()
			fr := wire.NewFrameReader(nc, 0)
			var resp wire.SubmitResp
			var unknown, dups int
			defer func() {
				mu.Lock()
				lr.unknown += unknown
				lr.dups += dups
				mu.Unlock()
			}()
			for {
				h, p, err := fr.Next()
				if err != nil {
					return
				}
				now := int64(time.Since(origin))
				k := int(h.ID) - 1
				if h.Type != wire.FrameSubmitResp || k < 0 || k >= n || k%nconn != c || wire.DecodeSubmitResp(p, &resp) != nil {
					unknown++
					continue
				}
				r := &lr.recs[k]
				if r.answers > 0 {
					dups++
					continue
				}
				r.answers, r.recv, r.resp, r.seq, r.status, r.missed = 1, now, int64(resp.Response), resp.Seq, resp.Status, resp.Missed
				answered.Add(1)
				if traceFrom >= 0 && tr.due[k] >= traceFrom {
					sent := r.sent.Load()
					id := uint64(k + 1)
					connSpans[c] = append(connSpans[c],
						span{Trace: id, ID: 2*id - 1, Name: "client.submit", Start: sent, End: now},
						// The engine interval is on the server's clock; it
						// is placed to end when the answer arrived.
						span{Trace: id, ID: 2 * id, Parent: 2*id - 1, Name: "engine", Start: now - r.resp, End: now})
				}
			}
		}()
		writers.Add(1)
		go func() {
			defer writers.Done()
			buf := make([]byte, 0, 64<<10)
			req := wire.SubmitReq{Compute: spec.compute, Deadline: spec.deadline}
			for k := c; k < n; {
				if wait := time.Until(origin.Add(tr.due[k])); wait > 0 {
					time.Sleep(wait)
				}
				// Catch up in one burst with everything already due.
				now := time.Since(origin)
				buf = buf[:0]
				first := k
				for ; k < n && tr.due[k] <= now; k += nconn {
					req.Items = tr.req(k)
					buf = wire.AppendSubmit(buf, uint64(k+1), &req)
				}
				sent := int64(time.Since(origin))
				for j := first; j < k; j += nconn {
					lr.recs[j].sent.Store(sent)
				}
				if _, err := nc.Write(buf); err != nil {
					mu.Lock()
					lr.errs = append(lr.errs, fmt.Errorf("connection %d write: %w", c, err))
					for j := first; j < n; j += nconn {
						lr.notSent++
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	for i, at := range sampleAt {
		i, at := i, at
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			time.Sleep(time.Until(origin.Add(at)))
			c, err := srv.sample()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				lr.errs = append(lr.errs, fmt.Errorf("counter sample: %w", err))
			}
			lr.samples[i] = c
		}()
	}
	writers.Wait()
	samplers.Wait()
	mu.Lock()
	expect := int64(n - lr.notSent)
	mu.Unlock()
	limit := time.Now().Add(spec.lostTimeout())
	for answered.Load() < expect && time.Now().Before(limit) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, nc := range conns {
		nc.Close()
	}
	readers.Wait()
	lr.lost = int(expect - answered.Load())
	for _, ss := range connSpans {
		lr.spans = append(lr.spans, ss...)
	}
	if trc != nil {
		trc.add(lr.spans...)
	}
	return lr, nil
}

// window summarizes the requests due in [from, to).
type window struct {
	from, to                     time.Duration
	sent, committed, failed, hit int
	lat, rtt, lag, eng, overhead []float64 // ms
	lastRecv                     time.Duration
}

func summarize(lr *loadResult, tr *traffic, spec serveSpec, from, to time.Duration) *window {
	w := &window{from: from, to: to}
	failLat := ms(spec.lostTimeout())
	for k, due := range tr.due {
		if due < from || due >= to {
			continue
		}
		r := &lr.recs[k]
		w.sent++
		sent := time.Duration(r.sent.Load())
		if r.answers == 0 || r.status != wire.StatusCommitted {
			w.failed++
			w.lat = append(w.lat, failLat)
			continue
		}
		w.committed++
		recv := time.Duration(r.recv)
		lat := recv - due
		w.lat = append(w.lat, ms(lat))
		if !r.missed && lat <= spec.deadline {
			w.hit++
		}
		if recv > w.lastRecv {
			w.lastRecv = recv
		}
		rtt := recv - sent
		w.rtt = append(w.rtt, ms(rtt))
		w.lag = append(w.lag, ms(sent-due))
		w.eng = append(w.eng, ms(time.Duration(r.resp)))
		w.overhead = append(w.overhead, ms(rtt-time.Duration(r.resp)))
	}
	return w
}

func runServe(e *env, spec serveSpec) (*outcome, error) {
	o := &outcome{Correct: true}
	nconn := runtime.NumCPU()
	if nconn > 2 {
		nconn = 2
	}
	seconds := time.Duration(e.seconds) * time.Second
	windows := 1
	if e.trace {
		windows = 2 // an untraced window, then a traced one
	}
	tr := genTraffic(spec, e.seed, warmup+time.Duration(windows)*seconds)

	runDir := filepath.Join(e.build, fmt.Sprintf("run-%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var srv *rtserve
	setups := make([]float64, 0, setupSpawns)
	for i := 0; i < setupSpawns; i++ {
		walDir := ""
		if spec.wal {
			walDir = filepath.Join(runDir, fmt.Sprintf("wal-%d", i))
		}
		s, d, err := startServer(e, spec, walDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupSpawns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("rtserve set-up spawn %d: %v\n%s", i, err, s.stderr())
			}
		} else {
			srv = s
		}
	}
	defer srv.kill()

	// Untraced runs split the window into sub-windows of about 2 s and
	// report the median over them of p50_ms and cpu_us_per_txn, which
	// host noise otherwise moves by several percent.
	subs := 1
	if !e.trace && e.seconds >= 4 {
		subs = e.seconds / 2
	}
	sampleAt := make([]time.Duration, subs+1)
	for i := range sampleAt {
		sampleAt[i] = warmup + time.Duration(i)*seconds/time.Duration(subs)
	}
	traceFrom := time.Duration(-1)
	var trc *tracer
	if e.trace {
		sampleAt = append(sampleAt, warmup+2*seconds)
		traceFrom = warmup + seconds
		trc = newTracer(time.Now())
	}
	lr, err := drive(srv, spec, tr, nconn, sampleAt, traceFrom, trc)
	if err != nil {
		return nil, err
	}
	for _, err := range lr.errs {
		o.problem("%v", err)
	}

	// Output checks: every request sent got exactly one answer, and nothing
	// is left in flight.
	if lr.lost > 0 {
		o.problem("%d requests lost their answer (none within %v of the last send)", lr.lost, spec.lostTimeout())
	}
	if lr.dups > 0 || lr.unknown > 0 {
		o.problem("%d duplicate and %d unknown answers", lr.dups, lr.unknown)
	}
	if err := waitIdle(srv); err != nil {
		o.problem("%v", err)
	}
	if err := srv.stop(); err != nil {
		o.problem("rtserve drain exit: %v", err)
	}
	if !strings.Contains(srv.stderr(), "rtserve: shutdown complete") {
		o.problem("rtserve did not report a clean shutdown:\n%s", srv.stderr())
	}
	if spec.wal {
		if err := checkWAL(srv.walDir, lr); err != nil {
			o.problem("%v", err)
		}
	}

	w := summarize(lr, tr, spec, warmup, warmup+seconds)
	o.Attempted, o.Failed = w.sent, w.failed
	if e.trace {
		o.Attempted, o.Failed = len(tr.due), 0
		for k := range lr.recs {
			if r := &lr.recs[k]; r.answers == 0 || r.status != wire.StatusCommitted {
				o.Failed++
			}
		}
	}
	before, after := lr.samples[0], lr.samples[subs]
	fmt.Fprintf(e.log, "%s: %d requests in the window, %d committed, %d in time, %d failed; %d sent in all\n",
		spec.name, w.sent, w.committed, w.hit, w.failed, len(tr.due))
	if !e.trace {
		o.add("setup_s", quantile(setups, 0.5), "s", "")
		o.add("sweep_s", (w.lastRecv - w.from).Seconds(), "s", "")
		p50s := make([]float64, subs)
		cpus := make([]float64, subs)
		for i := range p50s {
			sw := summarize(lr, tr, spec, sampleAt[i], sampleAt[i+1])
			p50s[i] = quantile(sw.lat, 0.5)
			cpus[i] = us(lr.samples[i+1].proc.cpu-lr.samples[i].proc.cpu) / float64(sw.committed)
		}
		o.add("p50_ms", quantile(p50s, 0.5), "ms", "")
		o.add("goodput_tps", float64(w.hit)/seconds.Seconds(), "txn/s", "")
		o.add("cpu_us_per_txn", quantile(cpus, 0.5), "us", "")
		o.add("peak_rss_mb", float64(after.proc.hwmKB)/1024, "MB", "")
		fmt.Fprintf(e.log, "%s: latency percentiles over %d samples\n", spec.name, len(w.lat))
		return o, nil
	}

	txns := float64(w.committed)
	vals := map[string]float64{
		"client.rtt_p50_ms":          quantile(w.rtt, 0.5),
		"client.rtt_p99_ms":          quantile(w.rtt, 0.99),
		"gen.lag_p99_ms":             quantile(w.lag, 0.99),
		"engine.response_p50_ms":     quantile(w.eng, 0.5),
		"engine.response_p99_ms":     quantile(w.eng, 0.99),
		"serve.overhead_p50_ms":      quantile(w.overhead, 0.5),
		"server.alloc_bytes_per_txn": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / txns,
		"server.allocs_per_txn":      float64(after.mem.Mallocs-before.mem.Mallocs) / txns,
		"server.gc_per_ktxn":         1000 * float64(after.mem.NumGC-before.mem.NumGC) / txns,
		"server.writes_per_txn":      float64(after.proc.syscw-before.proc.syscw) / txns,
		"server.reads_per_txn":       float64(after.proc.syscr-before.proc.syscr) / txns,
		"engine.rejected":            float64(after.eng.Rejected - before.eng.Rejected),
		"p99_ms":                     quantile(w.lat, 0.99),
	}
	if dc := after.eng.Committed - before.eng.Committed; dc > 0 {
		vals["engine.restarts_per_txn"] = float64(after.eng.Restarts-before.eng.Restarts) / float64(dc)
	} else {
		o.problem("engine committed counter did not move in the window")
	}
	if spec.wal {
		syncs := after.wal.Syncs - before.wal.Syncs
		outs := after.wal.Outcomes - before.wal.Outcomes
		if syncs == 0 || outs == 0 {
			o.problem("WAL counters did not move in the window")
		} else {
			vals["wal.records_per_sync"] = float64(after.wal.Submits-before.wal.Submits+outs) / float64(syncs)
			vals["wal.bytes_per_txn"] = float64(after.wal.Bytes-before.wal.Bytes) / float64(outs)
		}
	}
	traced := summarize(lr, tr, spec, warmup+seconds, warmup+2*seconds)
	p50A, p50B := quantile(w.lat, 0.5), quantile(traced.lat, 0.5)
	vals["trace.overhead_pct"] = 100 * (p50B - p50A) / p50A
	path, err := trc.write(filepath.Join(e.build, "spans"), fmt.Sprintf("%s-seed%d.jsonl", spec.name, e.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "%s: untraced p50 %.3f ms, traced p50 %.3f ms; %d spans in %s\n",
		spec.name, p50A, p50B, len(lr.spans), path)

	if err := runProbes(e, spec, vals, filepath.Join(runDir, "probe-wal")); err != nil {
		return nil, err
	}
	emitLayers(o, e, vals)
	return o, nil
}

// waitIdle polls /metrics until the server reports no live transaction.
// The engine counters ride a 250 ms cache, so it allows a few refreshes.
func waitIdle(srv *rtserve) error {
	var live int
	for i := 0; i < 20; i++ {
		c, err := srv.sample()
		if err != nil {
			return err
		}
		if live = c.live; live == 0 {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%d transactions still live after every answer arrived", live)
}

// checkWAL scans the closed log: every acknowledged sequence number must
// have an outcome record, every commit must carry one, and nothing may
// be unresolved.
func checkWAL(dir string, lr *loadResult) error {
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	outcomes := make(map[uint64]bool)
	rec, err := wal.Scan(fsys, func(h wal.Header, _ *wal.SubmitRecord, out *wal.OutcomeRecord) error {
		if h.Type == wal.RecOutcome {
			outcomes[out.Seq] = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal scan: %w", err)
	}
	var problems []string
	if len(rec.Unresolved) > 0 {
		problems = append(problems, fmt.Sprintf("%d unresolved WAL submissions", len(rec.Unresolved)))
	}
	acked, missing, unsequenced := 0, 0, 0
	for k := range lr.recs {
		r := &lr.recs[k]
		if r.answers == 0 {
			continue
		}
		if r.seq == 0 {
			if r.status == wire.StatusCommitted {
				unsequenced++
			}
			continue
		}
		acked++
		if !outcomes[r.seq] {
			missing++
		}
	}
	if missing > 0 || unsequenced > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d acked sequence numbers have no WAL outcome; %d commits carry no sequence number", missing, acked, unsequenced))
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
