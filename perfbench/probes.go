package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// probeDur is how long each paced layer probe runs.
const probeDur = 2 * time.Second

// runProbes times calls into the serving layers' public functions with
// the workload's own request shape and rate, outside rtserve: the wire
// codecs, wire.Client against wire.NewServer, shard.Service.SubmitBatch,
// and the WAL logger.
func runProbes(e *env, spec serveSpec, vals map[string]float64, walDir string) error {
	tr := genTraffic(spec, e.seed+1, probeDur)
	nconn := runtime.NumCPU()
	if nconn > 2 {
		nconn = 2
	}
	var err error
	if vals["wire.codec_ns_per_txn"], vals["wire.codec_allocs_per_txn"], err = codecProbe(spec, tr); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	lat, err := loopbackProbe(spec, tr, nconn)
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	vals["wire.loopback_p50_us"], vals["wire.loopback_p99_us"] = quantile(lat, 0.5), quantile(lat, 0.99)
	if lat, err = handoffProbe(spec, tr); err != nil {
		return fmt.Errorf("handoff probe: %w", err)
	}
	vals["service.handoff_p50_us"], vals["service.handoff_p99_us"] = quantile(lat, 0.5), quantile(lat, 0.99)
	appendNs, durable, err := walProbe(spec, tr, walDir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	vals["wal.append_ns"] = quantile(appendNs, 0.5)
	vals["wal.durable_p50_us"], vals["wal.durable_p99_us"] = quantile(durable, 0.5), quantile(durable, 0.99)
	return nil
}

// pace calls fire(k) at the k-th due offset from now, sleeping until each
// is due and firing everything already due in one burst after a late wake.
func pace(due []time.Duration, fire func(k int)) {
	origin := time.Now()
	for k := 0; k < len(due); {
		if wait := time.Until(origin.Add(due[k])); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(origin)
		for ; k < len(due) && due[k] <= now; k++ {
			fire(k)
		}
	}
}

// waitTimeout waits for wg, giving up after d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// codecProbe encodes and decodes every request of the stream and a
// committed answer for it, repeating the stream for at least 200 ms. It
// returns ns and heap allocations per transaction.
func codecProbe(spec serveSpec, tr *traffic) (float64, float64, error) {
	req := wire.SubmitReq{Compute: spec.compute, Deadline: spec.deadline}
	resp := wire.SubmitResp{Status: wire.StatusCommitted, Arrival: time.Second, Finish: time.Second + spec.compute,
		Deadline: time.Second + spec.deadline, Response: spec.compute, Seq: 1}
	var dreq wire.SubmitReq
	var dresp wire.SubmitResp
	var buf, rbuf []byte
	pass := func() error {
		for k := range tr.due {
			req.Items = tr.req(k)
			buf = wire.AppendSubmit(buf[:0], uint64(k+1), &req)
			if err := wire.DecodeSubmit(buf[wire.HeaderLen:], &dreq); err != nil {
				return err
			}
			rbuf = wire.AppendSubmitResp(rbuf[:0], uint64(k+1), &resp)
			if err := wire.DecodeSubmitResp(rbuf[wire.HeaderLen:], &dresp); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil { // grow the reusable buffers
		return 0, 0, err
	}
	last := tr.req(len(tr.due) - 1)
	if len(dreq.Items) != len(last) || dreq.Items[0] != last[0] || dresp != resp {
		return 0, 0, errors.New("decode does not invert encode")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < 200*time.Millisecond {
		if err := pass(); err != nil {
			return 0, 0, err
		}
		n += len(tr.due)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// stubBackend completes every submission inline as committed, so the
// loopback probe measures only the wire client and server connections.
type stubBackend struct{}

func (stubBackend) Enqueue(id uint64, req core.ServiceRequest, c wire.Completer) bool {
	c.Complete(id, core.ServiceOutcome{State: core.StateCommitted, Deadline: req.Deadline}, nil)
	return true
}
func (stubBackend) RetryAfterSecs() int          { return 1 }
func (stubBackend) Draining() bool               { return false }
func (stubBackend) HealthErr() error             { return nil }
func (stubBackend) MetricsBody() ([]byte, error) { return []byte("{}"), nil }

// loopbackProbe drives wire.Client against wire.NewServer over loopback
// TCP at the workload's rate and returns each round trip in µs.
func loopbackProbe(spec serveSpec, tr *traffic, nconn int) ([]float64, error) {
	srv := wire.NewServer(stubBackend{}, wire.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}
	clients := make([]*wire.Client, nconn)
	for i := range clients {
		if clients[i], err = wire.DialOptions(ln.Addr().String(), time.Second, wire.ClientOptions{RequestTimeout: spec.lostTimeout()}); err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			stop()
			return nil, err
		}
	}
	rtt := make([]float64, len(tr.due))
	var failed atomic.Int64
	var wg sync.WaitGroup
	pace(tr.due, func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := wire.SubmitReq{Items: tr.req(k), Compute: spec.compute, Deadline: spec.deadline}
			t := time.Now()
			resp, err := clients[k%nconn].Submit(&req)
			rtt[k] = us(time.Since(t))
			if err != nil || resp.Status != wire.StatusCommitted {
				failed.Add(1)
			}
		}()
	})
	wg.Wait()
	for _, c := range clients {
		c.Close()
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d of %d round trips failed", n, len(tr.due))
	}
	return rtt, nil
}

// handoffProbe submits the stream, one SubmitBatch call per request, to
// an in-process shard.Service with the workload's shard count and
// rtserve's default engine configuration, and returns each
// SubmitBatch-to-Done interval in µs.
func handoffProbe(spec serveSpec, tr *traffic) ([]float64, error) {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = spec.dbsize
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	svc, err := shard.NewService(cfg, shard.ServiceOptions{Shards: spec.shards, Core: core.ServiceOptions{Speed: 1}})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- svc.Run(ctx) }()
	lat := make([]float64, len(tr.due))
	var failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(tr.due))
	pace(tr.due, func(k int) {
		t := time.Now()
		svc.SubmitBatch([]core.Submission{{
			Req: core.ServiceRequest{Items: tr.req(k), Compute: spec.compute, Deadline: spec.deadline},
			Done: func(o core.ServiceOutcome, err error) {
				lat[k] = us(time.Since(t))
				if err != nil || o.State != core.StateCommitted {
					failed.Add(1)
				}
				wg.Done()
			},
		}})
	})
	answered := waitTimeout(&wg, spec.lostTimeout())
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	derr := svc.Drain(dctx)
	dcancel()
	cancel()
	if rerr := <-ran; rerr != nil && !errors.Is(rerr, context.Canceled) {
		return nil, rerr
	}
	switch {
	case !answered:
		return nil, errors.New("submissions left unanswered")
	case derr != nil:
		return nil, derr
	case failed.Load() > 0:
		return nil, fmt.Errorf("%d of %d submissions did not commit", failed.Load(), len(tr.due))
	}
	return lat, nil
}

// walProbe opens a logger on a fresh directory and, at the workload's
// rate, appends a submit record and then its outcome record, timing the
// submit append (ns) and the outcome's wait for its durable callback (µs).
func walProbe(spec serveSpec, tr *traffic, dir string) ([]float64, []float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, nil, err
	}
	l, _, err := wal.Open(wal.Options{FS: fsys})
	if err != nil {
		return nil, nil, err
	}
	appendNs := make([]float64, len(tr.due))
	durable := make([]float64, len(tr.due))
	var failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(tr.due))
	items := make([]int32, spec.items)
	pace(tr.due, func(k int) {
		for i, it := range tr.req(k) {
			items[i] = int32(it)
		}
		sub := wal.SubmitRecord{Items: items, Compute: spec.compute, Deadline: spec.deadline}
		t0 := time.Now()
		seq, err := l.AppendSubmit(&sub)
		appendNs[k] = float64(time.Since(t0))
		if err != nil {
			failed.Add(1)
			wg.Done()
			return
		}
		t1 := time.Now()
		out := wal.OutcomeRecord{Seq: seq, State: uint8(core.StateCommitted)}
		if err := l.AppendOutcome(&out, func(err error) {
			durable[k] = us(time.Since(t1))
			if err != nil {
				failed.Add(1)
			}
			wg.Done()
		}); err != nil {
			failed.Add(1)
			wg.Done()
		}
	})
	answered := waitTimeout(&wg, spec.lostTimeout())
	cerr := l.Close()
	switch {
	case !answered:
		return nil, nil, errors.New("outcome records never became durable")
	case cerr != nil:
		return nil, nil, cerr
	case failed.Load() > 0:
		return nil, nil, fmt.Errorf("%d of %d appends failed", failed.Load(), len(tr.due))
	}
	return appendNs, durable, nil
}
