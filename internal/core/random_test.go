package core

// Randomised workload property tests: arbitrary hand-built spec lists
// (random items, IO patterns, read/write mixes, criticalities, bursty
// arrivals) must drain under every policy with invariants on, produce
// serializable histories, and leave a database state equal to the last
// committed writers.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/txn"
	"repro/internal/workload"
)

// genRandomWorkload builds a structurally valid but adversarial workload:
// clustered items, occasional zero-slack deadlines, random IO and read
// flags, bursts of simultaneous-ish arrivals.
func genRandomWorkload(rng *rand.Rand, dbSize, count int, withIO bool) *workload.Workload {
	p := workload.BaseMainMemory()
	p.DBSize = dbSize
	p.Count = count
	if withIO {
		p.DiskAccessProb = 0.2
		p.DiskAccessTime = 10 * time.Millisecond
	}
	wl := &workload.Workload{Params: p}
	var arrival time.Duration
	for i := 0; i < count; i++ {
		if rng.Intn(4) > 0 { // 25% of txns arrive simultaneously with predecessor
			arrival += time.Duration(rng.ExpFloat64() * float64(30*time.Millisecond))
		}
		n := 1 + rng.Intn(6)
		seen := map[int]bool{}
		var items []txn.Item
		for len(items) < n {
			// Cluster around a hot region half the time.
			var v int
			if rng.Intn(2) == 0 {
				v = rng.Intn(dbSize / 3)
			} else {
				v = rng.Intn(dbSize)
			}
			if !seen[v] {
				seen[v] = true
				items = append(items, txn.Item(v))
			}
		}
		s := workload.Spec{
			ID:      i,
			Arrival: arrival,
			Items:   items,
			Compute: time.Duration(1+rng.Intn(5)) * time.Millisecond,
		}
		if withIO {
			s.NeedsIO = make([]bool, n)
			for j := range s.NeedsIO {
				s.NeedsIO[j] = rng.Intn(5) == 0
			}
		}
		if rng.Intn(3) == 0 {
			s.Reads = make([]bool, n)
			for j := range s.Reads {
				s.Reads[j] = rng.Intn(2) == 0
			}
		}
		if rng.Intn(5) == 0 {
			s.Criticality = rng.Intn(3)
		}
		res := s.ResourceTime(p.DiskAccessTime)
		slack := 1.0 + rng.Float64()*8 // occasionally nearly zero slack
		if rng.Intn(8) == 0 {
			slack = 1.0001
		}
		s.Deadline = s.Arrival + time.Duration(float64(res)*slack)
		wl.Txns = append(wl.Txns, s)
	}
	return wl
}

// drainsSerializable is the heavyweight end-to-end property: the policy
// polQ selects drains a random adversarial workload with invariants on,
// the history is serializable, and the final store state matches the last
// committed writer of every item.
func drainsSerializable(seed int64, polQ uint8, ioQ bool) bool {
	pols := Policies()
	rng := rand.New(rand.NewSource(seed))
	pol := pols[int(polQ)%len(pols)]
	if pol == PCP && ioQ {
		pol = EDFHP // PCP is main-memory only
	}
	wl := genRandomWorkload(rng, 40, 60, ioQ)
	cfg := MainMemoryConfig(pol, seed)
	cfg.Workload = wl.Params
	cfg.CheckInvariants = true
	cfg.RecordHistory = true
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		return false
	}
	res, err := e.Run()
	if err != nil || res.Committed != 60 {
		return false
	}
	if ok, _ := e.History().Serializable(); !ok {
		return false
	}
	// Final store state matches the last committed writer per item.
	last := map[txn.Item]int{}
	for _, op := range e.History().Ops() {
		if op.Kind == 1 {
			last[op.Item] = op.Txn
		}
	}
	for it := 0; it < 40; it++ {
		v := e.Store().Get(txn.Item(it))
		if w, ok := last[txn.Item(it)]; ok {
			if int(v.Writer) != w {
				return false
			}
		} else if v.Writer != -1 {
			return false
		}
	}
	return true
}

// drainsFirm is drainsSerializable under firm deadlines: commit + dropped
// must account for every transaction.
func drainsFirm(seed int64, polQ uint8) bool {
	pols := Policies()
	rng := rand.New(rand.NewSource(seed))
	pol := pols[int(polQ)%len(pols)]
	if pol == PCP {
		pol = EDFHP // PCP is main-memory only (workload has IO)
	}
	wl := genRandomWorkload(rng, 30, 50, true)
	cfg := MainMemoryConfig(pol, seed)
	cfg.Workload = wl.Params
	cfg.FirmDeadlines = true
	cfg.CheckInvariants = true
	cfg.RecordHistory = true
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		return false
	}
	res, err := e.Run()
	if err != nil || res.Committed+res.Dropped != 50 {
		return false
	}
	ok, _ := e.History().Serializable()
	return ok
}

// TestQuickRandomWorkloadsDrainSerializable: drainsSerializable over every
// policy and random workloads.
func TestQuickRandomWorkloadsDrainSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := quick.Check(drainsSerializable, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomWorkloadsFirmMode: as above under firm deadlines.
func TestQuickRandomWorkloadsFirmMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := quick.Check(drainsFirm, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The two inputs below once livelocked the scheduler ("reschedule did not
// converge") inside a single instant. A newly blocked transaction closed
// two cycles: a real two-transaction deadlock, and a longer one through a
// waiter queued ahead of it. Deadlock resolution aborted only the longer
// cycle's lowest-priority member; that waiter restarted at once,
// re-queued ahead, and re-formed the same cycle forever while the real
// deadlock stood. Resolution now repeats until no cycle is reachable.

func TestLivelockRegressionEDFCRFirm(t *testing.T) {
	if pol := Policies()[0xcc%len(Policies())]; pol != EDFCR {
		t.Fatalf("input selects %s, want %s", pol, EDFCR)
	}
	if !drainsFirm(int64(0x199d5f47ade38bf9), 0xcc) {
		t.Fatal("firm-deadline EDF-CR workload did not drain serializably")
	}
}

func TestLivelockRegressionEDFWPWithIO(t *testing.T) {
	if pol := Policies()[0xfc%len(Policies())]; pol != EDFWP {
		t.Fatalf("input selects %s, want %s", pol, EDFWP)
	}
	if !drainsSerializable(int64(0x5d9e9e511caead8b), 0xfc, true) {
		t.Fatal("EDF-WP workload with IO did not drain serializably")
	}
}

// TestLivelockRegressionReaderBypass pins inputs that tripped the event
// guard with the clock still advancing. A higher-ranked writer waited on
// an item held by readers while lower-ranked readers kept joining them:
// each restart of a deadlock victim re-acquired the read lock past the
// queued writer, whose request was compared at the stale priority it was
// enqueued under. Readers now queue behind a writer that ranks at or
// above them (lock.Manager.AcquireRanked), and a waiter's request follows
// its current priority (lock.Manager.Reprioritize).
func TestLivelockRegressionReaderBypass(t *testing.T) {
	for _, in := range []struct {
		seed int64
		polQ uint8
		pol  PolicyKind
	}{
		{1379300364308416088, 0x22, EDFCR},
		{-6043019106532136069, 0x86, EDFCR},
		{-2451176194297050249, 0x7c, EDFCR},
		{-6241403978391933245, 0xca, EDFWP},
		{-3746153168460560919, 0x5c, EDFWP},
		{-695703195310066772, 0x3f, LSFHP},
	} {
		if pol := Policies()[int(in.polQ)%len(Policies())]; pol != in.pol {
			t.Fatalf("input %#x selects %s, want %s", in.polQ, pol, in.pol)
		}
		if !drainsSerializable(in.seed, in.polQ, true) {
			t.Errorf("%s workload (seed %d) did not drain serializably", in.pol, in.seed)
		}
	}
}

// TestQuickRandomMultiprocessor: random workloads on 2-3 CPUs and 2 disks.
func TestQuickRandomMultiprocessor(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, cpuQ, polQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := genRandomWorkload(rng, 60, 40, true)
		pols := []PolicyKind{CCA, EDFHP, EDFWP}
		cfg := MainMemoryConfig(pols[int(polQ)%len(pols)], seed)
		cfg.Workload = wl.Params
		cfg.NumCPUs = 2 + int(cpuQ%2)
		cfg.NumDisks = 2
		cfg.CheckInvariants = true
		e, err := NewWithWorkload(cfg, wl)
		if err != nil {
			return false
		}
		res, err := e.Run()
		return err == nil && res.Committed == 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
