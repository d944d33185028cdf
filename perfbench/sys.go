package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSample is one reading of a process's kernel counters.
type procSample struct {
	cpu   time.Duration // user + system
	syscr int64
	syscw int64
	hwmKB int64 // VmHWM
}

// threadCPU sums the scheduler's run time over the process's threads,
// from /proc/<pid>/task/*/schedstat: the CPU time /proc/<pid>/stat
// reports, at nanosecond rather than clock-tick resolution.
func threadCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// readProc samples /proc/<pid>/task/*/schedstat, /proc/<pid>/io and
// /proc/<pid>/status.
func readProc(pid int) (procSample, error) {
	var s procSample
	var err error
	if s.cpu, err = threadCPU(pid); err != nil {
		return s, err
	}
	kv := func(name string) (map[string]int64, error) {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, name))
		if err != nil {
			return nil, err
		}
		m := make(map[string]int64)
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			fs := strings.Fields(v)
			if len(fs) == 0 {
				continue
			}
			if n, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
				m[k] = n
			}
		}
		return m, nil
	}
	io, err := kv("io")
	if err != nil {
		return s, err
	}
	st, err := kv("status")
	if err != nil {
		return s, err
	}
	s.syscr, s.syscw, s.hwmKB = io["syscr"], io["syscw"], st["VmHWM"]
	return s, nil
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir (created if missing).
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// span is one traced interval. Spans of one request or cell share Trace;
// Parent is 0 for a root span. Times are ns since the tracer's origin.
type span struct {
	Trace  uint64            `json:"trace"`
	ID     uint64            `json:"span"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// add records spans, assigning IDs to those with ID 0, and returns the
// first span's ID.
func (t *tracer) add(ss ...span) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first uint64
	for i := range ss {
		if ss[i].ID == 0 {
			t.nextID++
			ss[i].ID = t.nextID
		}
		if i == 0 {
			first = ss[i].ID
		}
		t.spans = append(t.spans, ss[i])
	}
	return first
}

// id reserves a span ID.
func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// write stores the spans as JSON lines in dir/name and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
