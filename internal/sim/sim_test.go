package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSimulatorStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
	if s.Executed() != 0 {
		t.Fatalf("Executed() = %d, want 0", s.Executed())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d
		s.At(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired Time = -1
	s.At(50, func() {
		s.After(25, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
}

func TestCancelZeroHandleIsNoop(t *testing.T) {
	s := New()
	if s.Cancel(Handle{}) {
		t.Fatal("Cancel of the zero handle returned true")
	}
	if (Handle{}).Pending() || (Handle{}).Cancelled() {
		t.Fatal("zero handle reports pending or cancelled")
	}
}

func TestCancelFiredEventReturnsFalse(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run()
	if s.Cancel(e) {
		t.Fatal("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var events []Handle
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(Time(i), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event func did not panic")
		}
	}()
	s.At(1, nil)
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at t<=20)", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", s.Now())
	}
	s.RunUntil(100)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestRunLimitBoundsExecution(t *testing.T) {
	s := New()
	// Self-perpetuating event chain.
	var tick func()
	tick = func() { s.After(1, tick) }
	s.After(1, tick)
	n := s.RunLimit(500)
	if n != 500 {
		t.Fatalf("RunLimit fired %d, want 500", n)
	}
	if s.Executed() != 500 {
		t.Fatalf("Executed() = %d, want 500", s.Executed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step() on empty calendar returned true")
	}
}

func TestEventAtAccessor(t *testing.T) {
	s := New()
	e := s.At(42, func() {})
	if e.At() != 42 {
		t.Fatalf("At() = %v, want 42", e.At())
	}
	if !e.Pending() {
		t.Fatal("freshly scheduled event not pending")
	}
}

func TestClockMonotone(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(7))
	var last Time = -1
	for i := 0; i < 200; i++ {
		s.At(Time(rng.Intn(1000)), func() {
			if s.Now() < last {
				t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(10, recurse)
		}
	}
	s.After(10, recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("recursion depth = %d, want 5", depth)
	}
	if s.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", s.Now())
	}
}

// Property: for any slice of non-negative offsets, events fire in sorted
// order and the clock ends at the max.
func TestQuickOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fireTimes []Time
		for _, r := range raw {
			s.At(Time(r), func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireTimes[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to fire.
func TestQuickCancellationProperty(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		var events []Handle
		for i, r := range raw {
			i := i
			events = append(events, s.At(Time(r), func() { fired[i] = true }))
		}
		cancelled := make(map[int]bool)
		for i := range events {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range raw {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- handle semantics under record pooling ------------------------------

// TestFiredHandleIsInertAfterRecycle is the core pooling-safety regression:
// once an event fires, its record goes back to the free list and is reused
// for the next scheduled event. A stale handle to the fired event must stay
// a complete no-op — Cancel false, Pending false, Cancelled false — and in
// particular must not cancel or otherwise disturb the recycled record's new
// event.
func TestFiredHandleIsInertAfterRecycle(t *testing.T) {
	s := New()
	h1 := s.At(10, func() {})
	s.Run()
	// The first At refilled the free list with a whole slab; the fired
	// record went back on top of it.
	if s.FreeListLen() != eventSlabSize {
		t.Fatalf("free list holds %d records after one fire, want %d", s.FreeListLen(), eventSlabSize)
	}

	secondFired := false
	h2 := s.At(20, func() { secondFired = true })
	if h2.ev != h1.ev {
		t.Fatal("second event did not reuse the recycled record (LIFO free list)")
	}
	// The stale handle is inert in every way.
	if h1.Pending() {
		t.Error("fired handle reports pending after its record was recycled")
	}
	if h1.Cancelled() {
		t.Error("fired handle reports cancelled")
	}
	if s.Cancel(h1) {
		t.Error("Cancel of a fired handle returned true")
	}
	// ...and crucially did not kill the recycled record's new event.
	if !h2.Pending() {
		t.Fatal("recycled record's new event lost its pending state")
	}
	s.Run()
	if !secondFired {
		t.Fatal("stale Cancel suppressed the recycled record's event")
	}
}

// TestCancelledHandleIsInertAfterRecycle: same guarantee for a handle whose
// event was cancelled (rather than fired) before the record was reused —
// and Cancelled() keeps answering for the right incarnation on both sides.
func TestCancelledHandleIsInertAfterRecycle(t *testing.T) {
	s := New()
	h1 := s.At(10, func() { t.Error("cancelled event fired") })
	if !s.Cancel(h1) {
		t.Fatal("Cancel of a pending event returned false")
	}
	if !h1.Cancelled() {
		t.Fatal("handle not marked cancelled before reuse")
	}

	fired := false
	h2 := s.At(20, func() { fired = true })
	if h2.ev != h1.ev {
		t.Fatal("second event did not reuse the cancelled record")
	}
	// h1's incarnation was cancelled; h2's was not (yet).
	if !h1.Cancelled() {
		t.Error("cancelled handle forgot its cancellation after record reuse")
	}
	if h1.Pending() {
		t.Error("cancelled handle reports pending after record reuse")
	}
	if h2.Cancelled() {
		t.Error("fresh event reports cancelled because its record's previous incarnation was")
	}
	if s.Cancel(h1) {
		t.Error("double Cancel via a stale handle returned true")
	}
	s.Run()
	if !fired {
		t.Fatal("stale double-Cancel suppressed the recycled record's event")
	}
}

// TestHandleAtSurvivesRecycling: the scheduled time is captured in the
// handle, so At() stays correct after the record is reused at a different
// time.
func TestHandleAtSurvivesRecycling(t *testing.T) {
	s := New()
	h1 := s.At(7, func() {})
	s.Run()
	s.At(99, func() {})
	if h1.At() != 7 {
		t.Fatalf("stale handle At() = %v, want 7", h1.At())
	}
}

// TestPoolReusesRecordsBounded: a long event chain with only one event
// pending at a time must run the whole chain on a single record.
func TestPoolReusesRecordsBounded(t *testing.T) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d ticks, want 1000", n)
	}
	// The whole chain ran on the one slab allocated by the first After: the
	// free list never dipped below slab size - 1 and ends exactly full.
	if s.FreeListLen() != eventSlabSize {
		t.Fatalf("free list holds %d records after a serial chain, want %d", s.FreeListLen(), eventSlabSize)
	}
}

// TestUnpooledSemanticsMatch: the unpooled calendar must behave identically
// (ordering, cancellation, handle checks) — it only skips record reuse.
func TestUnpooledSemanticsMatch(t *testing.T) {
	s := NewUnpooled()
	var got []Time
	h := s.At(5, func() { t.Error("cancelled event fired") })
	for _, d := range []time.Duration{30, 10, 20} {
		s.At(d, func() { got = append(got, s.Now()) })
	}
	if !s.Cancel(h) {
		t.Fatal("Cancel failed on unpooled calendar")
	}
	if !h.Cancelled() || h.Pending() {
		t.Fatal("handle state wrong after unpooled Cancel")
	}
	s.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.FreeListLen() != 0 {
		t.Fatalf("unpooled simulator grew a free list of %d", s.FreeListLen())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}

// benchCalendarChurn drives the regime engines put the calendar through:
// a bounded number of pending events recycled through schedule/fire (and
// an occasional cancel) hundreds of thousands of times.
func benchCalendarChurn(b *testing.B, s func() *Simulator) {
	b.Helper()
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		sim := s()
		for j := 0; j < 64; j++ {
			sim.At(Time(j), fn)
		}
		for j := 0; j < 100000; j++ {
			h := sim.After(Time(17+(j%13)), fn)
			if j%7 == 0 {
				sim.Cancel(h)
			}
			sim.Step()
		}
		sim.Run()
	}
}

func BenchmarkCalendarChurnPooled(b *testing.B)   { benchCalendarChurn(b, New) }
func BenchmarkCalendarChurnUnpooled(b *testing.B) { benchCalendarChurn(b, NewUnpooled) }

// --- equivalence with the original calendar -------------------------------

// refEvent, refHandle and refSim are the calendar this package shipped
// before the pointer-free one: a container/heap of *refEvent with eager
// removal on cancel, pooled or not. They are kept here only as the oracle
// the property test below compares against. (A pooled record keeps one
// cancelled incarnation, so a cancelled handle stops reporting Cancelled
// once its recycled record is cancelled again; the unpooled calendar
// never recycles. Both calendars reproduce their original's answer.)
type refEvent struct {
	at           Time
	seq          uint64
	fn           func()
	index        int
	gen          uint64
	cancelledGen uint64
}

type refHandle struct {
	ev  *refEvent
	gen uint64
}

func (h refHandle) Pending() bool   { return h.ev != nil && h.ev.gen == h.gen }
func (h refHandle) Cancelled() bool { return h.ev != nil && h.ev.cancelledGen == h.gen }

type refSim struct {
	now      Time
	seq      uint64
	calendar refHeap
	executed uint64
	free     []*refEvent
	pool     bool
}

func (s *refSim) At(t Time, fn func()) refHandle {
	if t < s.now {
		panic("ref: scheduling in the past")
	}
	var e *refEvent
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &refEvent{gen: 1}
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	heap.Push(&s.calendar, e)
	return refHandle{ev: e, gen: e.gen}
}

func (s *refSim) recycle(e *refEvent) {
	e.gen++
	e.fn = nil
	if s.pool {
		s.free = append(s.free, e)
	}
}

func (s *refSim) Cancel(h refHandle) bool {
	e := h.ev
	if e == nil || e.gen != h.gen {
		return false
	}
	heap.Remove(&s.calendar, e.index)
	e.cancelledGen = e.gen
	s.recycle(e)
	return true
}

func (s *refSim) Step() bool {
	if len(s.calendar) == 0 {
		return false
	}
	e := heap.Pop(&s.calendar).(*refEvent)
	s.now = e.at
	s.executed++
	fn := e.fn
	s.recycle(e)
	fn()
	return true
}

func (s *refSim) RunUntil(t Time) {
	for len(s.calendar) > 0 && s.calendar[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

func (s *refSim) NextAt() (Time, bool) {
	if len(s.calendar) == 0 {
		return 0, false
	}
	return s.calendar[0].at, true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// calendar is the surface the property test drives; handles are indices
// into the driver's list of every handle ever issued.
type calendar interface {
	at(t Time, fn func()) int
	cancel(i int) bool
	handleState(i int) (pending, cancelled bool)
	step() bool
	runUntil(t Time)
	nextAt() (Time, bool)
	now() Time
	pending() int
	executed() uint64
}

type simCal struct {
	s  *Simulator
	hs []Handle
}

func (c *simCal) at(t Time, fn func()) int { c.hs = append(c.hs, c.s.At(t, fn)); return len(c.hs) - 1 }
func (c *simCal) cancel(i int) bool        { return c.s.Cancel(c.hs[i]) }
func (c *simCal) handleState(i int) (bool, bool) {
	return c.hs[i].Pending(), c.hs[i].Cancelled()
}
func (c *simCal) step() bool           { return c.s.Step() }
func (c *simCal) runUntil(t Time)      { c.s.RunUntil(t) }
func (c *simCal) nextAt() (Time, bool) { return c.s.NextAt() }
func (c *simCal) now() Time            { return c.s.Now() }
func (c *simCal) pending() int         { return c.s.Pending() }
func (c *simCal) executed() uint64     { return c.s.Executed() }

type refCal struct {
	s  refSim
	hs []refHandle
}

func (c *refCal) at(t Time, fn func()) int { c.hs = append(c.hs, c.s.At(t, fn)); return len(c.hs) - 1 }
func (c *refCal) cancel(i int) bool        { return c.s.Cancel(c.hs[i]) }
func (c *refCal) handleState(i int) (bool, bool) {
	return c.hs[i].Pending(), c.hs[i].Cancelled()
}
func (c *refCal) step() bool           { return c.s.Step() }
func (c *refCal) runUntil(t Time)      { c.s.RunUntil(t) }
func (c *refCal) nextAt() (Time, bool) { return c.s.NextAt() }
func (c *refCal) now() Time            { return c.s.now }
func (c *refCal) pending() int         { return len(c.s.calendar) }
func (c *refCal) executed() uint64     { return c.s.executed }

// calDriver applies a random operation stream to one calendar. Two drivers
// seeded alike make identical choices for as long as their calendars
// behave identically, so any divergence shows up in the compared state.
type calDriver struct {
	cal     calendar
	rng     *rand.Rand
	fired   []int // labels in firing order
	checked int   // prefix of fired already compared
	labels  int
	handles int
}

func (d *calDriver) schedule(t Time) {
	label := d.labels
	d.labels++
	d.cal.at(t, func() { d.fire(label) })
	d.handles++
}

// fire is every event's callback: it logs the label and sometimes
// schedules (often at the current instant) or cancels from inside the
// callback.
func (d *calDriver) fire(label int) {
	d.fired = append(d.fired, label)
	switch d.rng.Intn(6) {
	case 0, 1:
		d.schedule(d.cal.now() + Time(d.rng.Intn(3)))
	case 2:
		d.cal.cancel(d.rng.Intn(d.handles))
	}
}

// op performs one random operation.
func (d *calDriver) op() {
	now := d.cal.now()
	switch r := d.rng.Intn(100); {
	case r < 30: // near-future, many same-instant ties
		d.schedule(now + Time(d.rng.Intn(4)))
	case r < 38: // far future
		d.schedule(now + Time(100+d.rng.Intn(1000)))
	case r < 42: // a presorted batch, like a run's arrivals
		t := now
		for k := d.rng.Intn(20); k > 0; k-- {
			t += Time(d.rng.Intn(3))
			d.schedule(t)
		}
	case r < 60: // cancel any handle: pending, fired, cancelled or recycled
		if d.handles > 0 {
			d.cal.cancel(d.rng.Intn(d.handles))
		}
	case r < 88:
		d.cal.step()
	case r < 95:
		d.cal.runUntil(now + Time(d.rng.Intn(8)))
	default:
		d.cal.nextAt()
	}
}

func compareCalendars(t *testing.T, a, b *calDriver, full bool) {
	t.Helper()
	if len(a.fired) != len(b.fired) {
		t.Fatalf("fired %d events, reference fired %d", len(a.fired), len(b.fired))
	}
	for i := a.checked; i < len(a.fired); i++ {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("firing %d: label %d, reference %d", i, a.fired[i], b.fired[i])
		}
	}
	a.checked = len(a.fired)
	if a.cal.now() != b.cal.now() || a.cal.pending() != b.cal.pending() || a.cal.executed() != b.cal.executed() {
		t.Fatalf("now/pending/executed = %v/%d/%d, reference %v/%d/%d",
			a.cal.now(), a.cal.pending(), a.cal.executed(), b.cal.now(), b.cal.pending(), b.cal.executed())
	}
	ta, oka := a.cal.nextAt()
	tb, okb := b.cal.nextAt()
	if ta != tb || oka != okb {
		t.Fatalf("NextAt = %v,%v, reference %v,%v", ta, oka, tb, okb)
	}
	check := func(i int) {
		pa, ca := a.cal.handleState(i)
		pb, cb := b.cal.handleState(i)
		if pa != pb || ca != cb {
			t.Fatalf("handle %d: pending/cancelled = %v/%v, reference %v/%v", i, pa, ca, pb, cb)
		}
	}
	if full {
		for i := 0; i < a.handles; i++ {
			check(i)
		}
	} else if a.handles > 0 {
		for k := 0; k < 4; k++ {
			check(a.rng.Intn(a.handles))
			b.rng.Intn(b.handles) // keep the drivers' streams in lockstep
		}
	}
}

// TestCalendarMatchesReference drives the calendar and the original
// container/heap calendar with identical random operation streams and
// asserts identical firing order, clock, counters and handle answers.
func TestCalendarMatchesReference(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func() *Simulator
		pool bool
	}{{"pooled", New, true}, {"unpooled", NewUnpooled, false}} {
		t.Run(mk.name, func(t *testing.T) {
			for seed := int64(1); seed <= 100; seed++ {
				a := &calDriver{cal: &simCal{s: mk.new()}, rng: rand.New(rand.NewSource(seed))}
				b := &calDriver{cal: &refCal{s: refSim{pool: mk.pool}}, rng: rand.New(rand.NewSource(seed))}
				for i := 0; i < 1500; i++ {
					a.op()
					b.op()
					compareCalendars(t, a, b, false)
				}
				for a.cal.step() {
				}
				for b.cal.step() {
				}
				compareCalendars(t, a, b, true)
			}
		})
	}
}

// TestCalendarMemoryTracksPending: with a few far-future events pending, a
// long stream of scheduled and cancelled events — in the heap and behind
// the far events on the run — must not grow the heap, the run or the
// record table beyond a constant factor of Pending.
func TestCalendarMemoryTracksPending(t *testing.T) {
	const far = Time(1) << 40
	for _, mk := range []struct {
		name string
		new  func() *Simulator
	}{{"pooled", New}, {"unpooled", NewUnpooled}} {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.new()
			fn := func() {}
			var farHandles []Handle
			for j := 0; j < 8; j++ {
				farHandles = append(farHandles, s.At(far+Time(j), fn))
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 50000; i++ {
				// Each iteration schedules one near event and one run
				// tail, then removes two: Pending stays at 8 or 9.
				near := s.After(Time(1+rng.Intn(7)), fn)
				s.Cancel(s.At(far+Time(8+i), fn))
				if rng.Intn(2) == 0 {
					s.Cancel(near)
				} else {
					s.Step()
				}
				p := s.Pending()
				if slots := cap(s.heap) + cap(s.run); slots > 8*p {
					t.Fatalf("iteration %d: heap+run capacity %d with %d pending", i, slots, p)
				}
				if len(s.recs) > eventSlabSize {
					t.Fatalf("iteration %d: %d records with %d pending", i, len(s.recs), p)
				}
			}
			for _, h := range farHandles {
				if !h.Pending() {
					t.Fatal("a far-future event left the calendar")
				}
			}

			// A sliding window on the run: every fired event appends one
			// at the tail, so the run never drains and its consumed
			// prefix must be compacted away.
			s = mk.new()
			var tick func()
			tick = func() { s.After(8, tick) }
			for j := 1; j <= 8; j++ {
				s.At(s.Now()+Time(j), tick)
			}
			for i := 0; i < 50000; i++ {
				s.Step()
				if p := s.Pending(); cap(s.run) > 8*p || len(s.heap) != 0 {
					t.Fatalf("window step %d: run capacity %d, heap %d, with %d pending", i, cap(s.run), len(s.heap), p)
				}
			}
		})
	}
}
