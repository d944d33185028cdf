package lock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/txn"
)

func TestAcquireGrantAndReentry(t *testing.T) {
	m := NewManager()
	if !m.Acquire(1, 10, Write) {
		t.Fatal("first Acquire denied")
	}
	if !m.Acquire(1, 10, Write) {
		t.Fatal("re-entrant Acquire denied")
	}
	if !m.Holds(1, 10) {
		t.Fatal("Holds false after grant")
	}
	if got := m.HeldBy(1); len(got) != 1 || got[0] != 10 {
		t.Fatalf("HeldBy = %v", got)
	}
	if got := m.Holders(10); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Holders = %v", got)
	}
	m.CheckInvariants()
}

func TestWriteExcludesWrite(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Write)
	if m.Acquire(2, 10, Write) {
		t.Fatal("conflicting write granted")
	}
	got := m.Conflicting(2, 10, Write)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Conflicting = %v, want [1]", got)
	}
}

func TestSharedReaders(t *testing.T) {
	m := NewManager()
	if !m.Acquire(1, 5, Read) || !m.Acquire(2, 5, Read) || !m.Acquire(3, 5, Read) {
		t.Fatal("concurrent readers denied")
	}
	if m.Acquire(4, 5, Write) {
		t.Fatal("write granted alongside readers")
	}
	if len(m.Conflicting(4, 5, Write)) != 3 {
		t.Fatal("write should conflict with all 3 readers")
	}
	if len(m.Conflicting(1, 5, Read)) != 0 {
		t.Fatal("reader should not conflict with readers")
	}
	m.CheckInvariants()
}

func TestReadUpgrade(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 5, Read)
	if !m.Acquire(1, 5, Write) {
		t.Fatal("sole-holder upgrade denied")
	}
	if m.Acquire(2, 5, Read) {
		t.Fatal("read granted against upgraded writer")
	}
	// Upgrade with other readers present must fail.
	m2 := NewManager()
	m2.Acquire(1, 5, Read)
	m2.Acquire(2, 5, Read)
	if m2.Acquire(1, 5, Write) {
		t.Fatal("upgrade granted with a co-reader present")
	}
}

func TestWriterThenReadDenied(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 7, Write)
	if m.Acquire(2, 7, Read) {
		t.Fatal("read granted against writer")
	}
	// Re-entrant weaker mode when holding Write stays granted.
	if !m.Acquire(1, 7, Read) {
		t.Fatal("holder's weaker-mode re-acquire denied")
	}
	if mode, ok := m.items[7].holderMode(1); !ok || mode != Write {
		t.Fatal("holder mode demoted by weaker re-acquire")
	}
}

func TestEnqueueOrderByPriority(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write, Priority: 5})
	m.Enqueue(&Request{Txn: 3, Item: 3, Mode: Write, Priority: 9})
	m.Enqueue(&Request{Txn: 4, Item: 3, Mode: Write, Priority: 5})
	ws := m.Waiters(3)
	wantOrder := []TxnID{3, 2, 4} // highest priority first, FIFO on ties
	for i, w := range ws {
		if w.Txn != wantOrder[i] {
			t.Fatalf("waiter %d = txn %d, want %d", i, w.Txn, wantOrder[i])
		}
	}
	m.CheckInvariants()
}

func TestEnqueueTwicePanics(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write})
	defer func() {
		if recover() == nil {
			t.Fatal("double enqueue did not panic")
		}
	}()
	m.Enqueue(&Request{Txn: 2, Item: 4, Mode: Write})
}

func TestAcquireWhileBlockedPanics(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write})
	defer func() {
		if recover() == nil {
			t.Fatal("acquire while blocked did not panic")
		}
	}()
	m.Acquire(2, 4, Write)
}

func TestReleaseGrantsWaiters(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Acquire(1, 4, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write, Priority: 1})
	m.Enqueue(&Request{Txn: 3, Item: 4, Mode: Write, Priority: 1})
	granted := m.ReleaseAll(1)
	if len(granted) != 2 {
		t.Fatalf("granted %d requests, want 2", len(granted))
	}
	if !m.Holds(2, 3) || !m.Holds(3, 4) {
		t.Fatal("waiters not granted after release")
	}
	if m.Waiting(2) != nil || m.Waiting(3) != nil {
		t.Fatal("granted waiters still marked waiting")
	}
	if len(m.HeldBy(1)) != 0 {
		t.Fatal("releaser still holds items")
	}
	m.CheckInvariants()
}

func TestReleaseGrantsReaderBatch(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Read, Priority: 3})
	m.Enqueue(&Request{Txn: 3, Item: 3, Mode: Read, Priority: 2})
	m.Enqueue(&Request{Txn: 4, Item: 3, Mode: Write, Priority: 1})
	granted := m.ReleaseAll(1)
	if len(granted) != 2 {
		t.Fatalf("granted %d, want the 2 readers", len(granted))
	}
	if !m.Holds(2, 3) || !m.Holds(3, 3) || m.Holds(4, 3) {
		t.Fatal("reader batch grant wrong")
	}
	// Writer is granted once both readers release.
	m.ReleaseAll(2)
	if m.Holds(4, 3) {
		t.Fatal("writer granted too early")
	}
	g := m.ReleaseAll(3)
	if len(g) != 1 || g[0].Txn != 4 || !m.Holds(4, 3) {
		t.Fatal("writer not granted after readers release")
	}
}

func TestReadMayJoinReadersDespiteQueuedWriter(t *testing.T) {
	// The queue is priority-ordered, not FIFO: a compatible reader is
	// granted immediately even with a writer queued (see Acquire's note).
	m := NewManager()
	m.Acquire(1, 3, Read)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write, Priority: 1})
	if !m.Acquire(3, 3, Read) {
		t.Fatal("compatible reader was refused")
	}
	m.CheckInvariants()
}

func TestCancelWait(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write})
	if _, ok := m.CancelWait(2); !ok {
		t.Fatal("CancelWait returned false for waiting txn")
	}
	if _, ok := m.CancelWait(2); ok {
		t.Fatal("second CancelWait returned true")
	}
	if len(m.Waiters(3)) != 0 {
		t.Fatal("cancelled waiter still queued")
	}
	if granted := m.ReleaseAll(1); len(granted) != 0 {
		t.Fatal("cancelled waiter granted on release")
	}
}

// TestCancelWaitGrantsBlockedFollowers: a reader queued behind a writer on
// a reader-held item must be granted when that writer's wait is cancelled
// (e.g. the writer is wounded) — otherwise it would sleep forever on an
// item that is compatible with it.
func TestCancelWaitGrantsBlockedFollowers(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Read)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write, Priority: 5})
	// Queue the reader directly behind the writer (lower priority).
	m.Enqueue(&Request{Txn: 3, Item: 3, Mode: Read, Priority: 1})
	granted, ok := m.CancelWait(2)
	if !ok {
		t.Fatal("writer was waiting")
	}
	if len(granted) != 1 || granted[0].Txn != 3 {
		t.Fatalf("granted = %v, want the blocked reader", granted)
	}
	if !m.Holds(3, 3) {
		t.Fatal("reader not holding after grant")
	}
	m.CheckInvariants()
}

// TestCancelWaitOnHeldItemGrantsNothing: cancelling a waiter on an item
// with an incompatible holder must not grant anyone.
func TestCancelWaitOnHeldItemGrantsNothing(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write, Priority: 5})
	m.Enqueue(&Request{Txn: 3, Item: 3, Mode: Write, Priority: 1})
	granted, ok := m.CancelWait(2)
	if !ok || len(granted) != 0 {
		t.Fatalf("granted = %v, want none", granted)
	}
	if len(m.Waiters(3)) != 1 {
		t.Fatal("remaining waiter lost")
	}
}

func TestWaitsFor(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 3, Write)
	m.Enqueue(&Request{Txn: 2, Item: 3, Mode: Write})
	wf := m.WaitsFor(2)
	if len(wf) != 1 || wf[0] != 1 {
		t.Fatalf("WaitsFor(2) = %v, want [1]", wf)
	}
	if m.WaitsFor(1) != nil {
		t.Fatal("non-waiting txn has waits-for edges")
	}
}

func TestDetectCycleSimple(t *testing.T) {
	m := NewManager()
	// 1 holds A, 2 holds B; 1 waits for B, 2 waits for A -> cycle.
	m.Acquire(1, 100, Write)
	m.Acquire(2, 200, Write)
	m.Enqueue(&Request{Txn: 1, Item: 200, Mode: Write})
	m.Enqueue(&Request{Txn: 2, Item: 100, Mode: Write})
	cycle := m.DetectCycle(1)
	if len(cycle) != 2 {
		t.Fatalf("cycle = %v, want 2 transactions", cycle)
	}
	seen := map[TxnID]bool{}
	for _, v := range cycle {
		seen[v] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("cycle = %v, want {1,2}", cycle)
	}
}

func TestDetectCycleThreeWay(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 100, Write)
	m.Acquire(2, 200, Write)
	m.Acquire(3, 300, Write)
	m.Enqueue(&Request{Txn: 1, Item: 200, Mode: Write})
	m.Enqueue(&Request{Txn: 2, Item: 300, Mode: Write})
	m.Enqueue(&Request{Txn: 3, Item: 100, Mode: Write})
	if got := m.DetectCycle(2); len(got) != 3 {
		t.Fatalf("3-cycle not found: %v", got)
	}
}

func TestDetectCycleNone(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 100, Write)
	m.Enqueue(&Request{Txn: 2, Item: 100, Mode: Write})
	if got := m.DetectCycle(2); got != nil {
		t.Fatalf("found spurious cycle %v", got)
	}
}

func TestLockedItems(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 1, Write)
	m.Acquire(1, 2, Write)
	m.Acquire(2, 3, Write)
	if got := m.LockedItems(); got != 3 {
		t.Fatalf("LockedItems = %d, want 3", got)
	}
	m.ReleaseAll(1)
	if got := m.LockedItems(); got != 1 {
		t.Fatalf("LockedItems after release = %d, want 1", got)
	}
}

func TestHeldCount(t *testing.T) {
	m := NewManager()
	if m.HeldCount(1) != 0 {
		t.Fatal("fresh manager reports held locks")
	}
	m.Acquire(1, 1, Write)
	m.Acquire(1, 2, Read)
	m.Acquire(1, 2, Read) // re-entrant: no double count
	m.Acquire(2, 3, Write)
	if got := m.HeldCount(1); got != 2 {
		t.Fatalf("HeldCount(1) = %d, want 2", got)
	}
	if got := len(m.HeldBy(1)); got != m.HeldCount(1) {
		t.Fatalf("HeldCount(1) = %d disagrees with HeldBy length %d", m.HeldCount(1), got)
	}
	m.ReleaseAll(1)
	if got := m.HeldCount(1); got != 0 {
		t.Fatalf("HeldCount(1) after release = %d, want 0", got)
	}
	if got := m.HeldCount(2); got != 1 {
		t.Fatalf("HeldCount(2) = %d, want 1", got)
	}
}

// Property: under random write-lock traffic with wound-style releases, the
// table never has two holders of one item and always passes CheckInvariants.
func TestQuickWriteLockExclusivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		live := map[TxnID]bool{}
		for op := 0; op < 300; op++ {
			id := TxnID(rng.Intn(10))
			item := txn.Item(rng.Intn(6))
			switch rng.Intn(3) {
			case 0: // acquire or wound
				if m.Waiting(id) != nil {
					continue
				}
				// Wound until granted: releasing a holder may promote a
				// queued waiter into a fresh holder, which must be wounded
				// in turn (finitely many waiters, so this terminates).
				rounds := 0
				for !m.Acquire(id, item, Write) {
					if rounds++; rounds > 20 {
						return false // wounding every conflicter must eventually grant
					}
					for _, h := range m.Conflicting(id, item, Write) {
						m.CancelWait(h)
						m.ReleaseAll(h)
						delete(live, h)
					}
				}
				live[id] = true
			case 1: // enqueue behind a conflict
				if m.Waiting(id) != nil {
					continue
				}
				if !m.Acquire(id, item, Write) {
					m.Enqueue(&Request{Txn: id, Item: item, Mode: Write, Priority: rng.Float64()})
				}
			case 2: // commit
				m.CancelWait(id)
				m.ReleaseAll(id)
				delete(live, id)
			}
			for it := txn.Item(0); it < 6; it++ {
				if len(m.Holders(it)) > 1 {
					return false
				}
			}
			m.CheckInvariants()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: HP wound ordering — if waiters always have lower priority than
// holders, the waits-for graph is acyclic (the EDF-HP no-deadlock argument).
func TestQuickNoDeadlockWhenWaitersLowerPriority(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		prio := map[TxnID]float64{}
		for i := TxnID(0); i < 8; i++ {
			prio[i] = rng.Float64()
		}
		for op := 0; op < 200; op++ {
			id := TxnID(rng.Intn(8))
			item := txn.Item(rng.Intn(5))
			if m.Waiting(id) != nil {
				continue
			}
			if rng.Intn(4) == 3 {
				m.ReleaseAll(id)
				continue
			}
			if m.Acquire(id, item, Write) {
				continue
			}
			hs := m.Conflicting(id, item, Write)
			allLower := true
			for _, h := range hs {
				if prio[h] >= prio[id] {
					allLower = false
				}
			}
			if allLower {
				for _, h := range hs {
					m.CancelWait(h)
					m.ReleaseAll(h)
				}
				m.Acquire(id, item, Write)
			} else {
				m.Enqueue(&Request{Txn: id, Item: item, Mode: Write, Priority: prio[id]})
			}
			for t := range prio {
				if m.DetectCycle(t) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Write.String() != "W" || Read.String() != "R" {
		t.Fatal("Mode.String wrong")
	}
}

// TestHeldListRecycling: ReleaseAll hands held lists to the free list, so
// a steady acquire→ReleaseAll cycle for a fresh transaction allocates
// nothing on a pre-sized manager.
func TestHeldListRecycling(t *testing.T) {
	m := NewManagerSized(16, 1000)
	m.Acquire(999, 3, Write)
	m.ReleaseAll(999)
	id := TxnID(0)
	allocs := testing.AllocsPerRun(200, func() {
		id++
		m.Acquire(id, txn.Item(id%16), Write)
		m.Acquire(id, txn.Item((id+5)%16), Read)
		if granted := m.ReleaseAll(id); granted != nil {
			t.Fatalf("ReleaseAll granted %v with no waiters", granted)
		}
	})
	if allocs != 0 {
		t.Fatalf("acquire→ReleaseAll cycle allocates %v times per run, want 0", allocs)
	}
	if len(m.spare) != 1 {
		t.Fatalf("%d spare held lists after the cycles, want 1", len(m.spare))
	}
}

// TestHeldListReuseKeepsAnswers: a held list reused by another transaction
// carries nothing over — Holds, HeldBy and HeldCount stay per transaction.
func TestHeldListReuseKeepsAnswers(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Write)
	m.Acquire(1, 11, Write)
	m.ReleaseAll(1)
	m.Acquire(2, 12, Write) // reuses T1's list
	if len(m.spare) != 0 {
		t.Fatalf("T2 did not take T1's list from the free list (%d spare)", len(m.spare))
	}
	if m.Holds(1, 10) || m.Holds(1, 11) || m.HeldCount(1) != 0 || len(m.HeldBy(1)) != 0 {
		t.Fatalf("released T1 still reports holds: HeldBy = %v", m.HeldBy(1))
	}
	if got := m.HeldBy(2); len(got) != 1 || got[0] != 12 || !m.Holds(2, 12) {
		t.Fatalf("HeldBy(T2) = %v, want [12]", got)
	}
	m.Acquire(1, 10, Read) // T1's next life
	if got := m.HeldBy(1); len(got) != 1 || got[0] != 10 {
		t.Fatalf("HeldBy(T1) = %v, want [10]", got)
	}
	if got := m.HeldBy(2); len(got) != 1 || got[0] != 12 {
		t.Fatalf("HeldBy(T2) = %v after T1 reacquired, want [12]", got)
	}
	m.CheckInvariants()
}

// TestAcquireRankedReaderRespectsQueuedWriter: a reader joins current
// readers only if it outranks every queued writer; otherwise it must
// queue behind the writer instead of extending the reader set forever.
func TestAcquireRankedReaderRespectsQueuedWriter(t *testing.T) {
	m := NewManager()
	if !m.AcquireRanked(1, 7, Read, 1) {
		t.Fatal("first reader denied")
	}
	if m.AcquireRanked(2, 7, Write, 5) {
		t.Fatal("writer granted over a reader")
	}
	m.Enqueue(&Request{Txn: 2, Item: 7, Mode: Write, Priority: 5})
	if m.AcquireRanked(3, 7, Read, 4) {
		t.Fatal("lower-ranked reader bypassed the queued writer")
	}
	if m.AcquireRanked(3, 7, Read, 5) {
		t.Fatal("equal-ranked reader bypassed the earlier queued writer")
	}
	if !m.AcquireRanked(4, 7, Read, 6) {
		t.Fatal("reader that outranks the queued writer was denied")
	}
	if !m.Acquire(5, 7, Read) {
		t.Fatal("unranked Acquire denied a reader (it ranks above every waiter)")
	}
	m.CheckInvariants()
}

// TestReprioritizeRequeuesAndGrants: a queued reader that moves ahead of
// the writer blocking it, onto an item held only by readers, is granted at
// once — whether it rises or the writer falls.
func TestReprioritizeRequeuesAndGrants(t *testing.T) {
	setup := func() *Manager {
		m := NewManager()
		m.AcquireRanked(1, 7, Read, 1)
		m.Enqueue(&Request{Txn: 2, Item: 7, Mode: Write, Priority: 5})
		m.Enqueue(&Request{Txn: 3, Item: 7, Mode: Read, Priority: 4})
		return m
	}
	for _, tc := range []struct {
		name string
		txn  TxnID
		pr   float64
	}{{"reader rises", 3, 9}, {"writer falls", 2, 3}} {
		m := setup()
		if got := m.Reprioritize(3, 4); got != nil {
			t.Fatalf("%s: unchanged priority granted %v", tc.name, got)
		}
		granted := m.Reprioritize(tc.txn, tc.pr)
		if len(granted) != 1 || granted[0].Txn != 3 {
			t.Fatalf("%s: granted %v, want T3", tc.name, granted)
		}
		if m.Waiting(3) != nil || !m.Holds(3, 7) {
			t.Fatalf("%s: granted reader still waiting or not holding", tc.name)
		}
		if ws := m.Waiters(7); len(ws) != 1 || ws[0].Txn != 2 {
			t.Fatalf("%s: queue = %v, want the writer alone", tc.name, ws)
		}
		m.CheckInvariants()
	}
	m := setup()
	if got := m.Reprioritize(2, 8); got != nil {
		t.Fatalf("raising the writer granted %v", got)
	}
	if m.Reprioritize(9, 1) != nil {
		t.Fatal("Reprioritize of a transaction that is not waiting granted something")
	}
	m.CheckInvariants()
}
