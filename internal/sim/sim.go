// Package sim implements a deterministic discrete-event simulation kernel.
//
// It is the Go equivalent of the SIMPACK event-scheduling core the paper's
// original C simulator was built on: a virtual clock, an event calendar
// ordered by firing time, and cancellable events. Events scheduled for the
// same instant fire in FIFO order of scheduling, which makes every run fully
// deterministic for a given seed and input.
//
// The kernel is single-threaded by design. Parallelism in this repository
// lives above the kernel: the experiment harness runs many independent
// simulations (seeds x sweep points x policies) concurrently, each with its
// own Simulator.
//
// Engines schedule hundreds of thousands of events per run, so the calendar
// holds no pointers. Each pending event is an inline (time, sequence, id)
// entry; the id names a callback record in a per-Simulator table. Entries
// live in one of two places: a presorted FIFO run, which takes every event
// scheduled at or after the run's last entry (such as the arrivals an
// engine schedules up front, in order), and a binary min-heap for the
// rest. Step fires the
// smaller (time, sequence) of the two heads, so the firing order is exactly
// that of a single heap keyed by (time, sequence). Cancel is lazy: it
// retires the record, and the orphaned entry is skipped when it surfaces
// (or swept out once stale entries outnumber live ones).
//
// Records are recycled through a free list instead of allocating one per
// event. Callers hold generation-checked Handle values: a Handle captures
// the incarnation of the record it was issued for, so Cancel (or
// Pending/Cancelled) on a handle whose event has already fired is a
// guaranteed no-op even after the record has been reused for an unrelated
// event. NewUnpooled allocates a fresh record per event instead, for the
// equivalence suite and the allocation benchmarks; behaviour is
// bit-identical either way.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, expressed as an offset from the start
// of the simulation. Using time.Duration gives nanosecond resolution, far
// finer than the paper's millisecond-scale parameters.
type Time = time.Duration

// Event is one scheduled-callback record. Records are owned and recycled
// by the Simulator; callers refer to them only through the
// generation-checked Handle returned by At and After.
type Event struct {
	fn func()
	// seq is the scheduling sequence number of the record's current
	// incarnation, or retired once it leaves the calendar (fire or
	// cancel). Sequence numbers are never reused, so seq doubles as the
	// incarnation a Handle checks, and a calendar entry whose seq no
	// longer matches its record's is a cancelled leftover.
	seq uint64
	// cancelled remembers the incarnation (if any) that was removed by
	// Cancel rather than by firing, so Handle.Cancelled stays answerable
	// after the record is recycled.
	cancelled uint64
	// id is the record's slot in the Simulator's record table.
	id uint32
}

// retired marks a record that is not in the calendar. Sequence numbers
// start at 1 and count up, so it never matches a live incarnation, and 0
// (the zero Handle's, and a fresh record's cancelled) never matches either.
const retired = ^uint64(0)

// Handle is a caller's reference to one scheduled event. It is a small
// value (no allocation) pairing the calendar record with the incarnation it
// was issued for. The zero Handle refers to no event: Pending and Cancelled
// report false and Cancel is a no-op.
type Handle struct {
	ev  *Event
	seq uint64
	at  Time
}

// At returns the simulated time the event was scheduled to fire. It remains
// valid after the event fires or is cancelled (the time is captured in the
// handle). The zero Handle returns 0.
func (h Handle) At() Time { return h.at }

// Pending reports whether the event is still in the calendar: it has
// neither fired nor been cancelled. A stale handle — one whose record has
// been recycled for a different event — reports false.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.seq == h.seq }

// Cancelled reports whether Cancel removed this handle's event before it
// fired. It answers for exactly the incarnation the handle was issued for:
// a handle whose event fired reports false forever, even after the
// underlying record is recycled and the new incarnation is cancelled.
func (h Handle) Cancelled() bool { return h.ev != nil && h.ev.cancelled == h.seq }

// entry is one calendar slot: the firing key inline, the callback by id.
type entry struct {
	at  Time
	seq uint64
	id  uint32
}

// before orders entries by (time, scheduling sequence); seq is unique, so
// the order is total.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventSlabSize is the batch size for refilling a pooled simulator's free
// list: records are allocated in slabs so calendar growth amortises to one
// allocation per slab.
const eventSlabSize = 64

// Simulator owns the virtual clock and the event calendar.
type Simulator struct {
	now      Time
	seq      uint64
	executed uint64
	live     int // pending events
	stale    int // cancelled entries still in the heap or the run

	heap []entry // min-heap by (at, seq)
	// run[head:] is sorted by (at, seq); run[:head] has been consumed.
	run  []entry
	head int

	recs []*Event // by id
	// free holds reusable ids (LIFO). On a pooled simulator each names a
	// retired record; on an unpooled one (pool false) only the slot is
	// reused and At installs a fresh record in it.
	free []uint32
	pool bool
}

// New returns an empty simulator with the clock at zero. Event records are
// pooled: each fire or cancel returns the record to a free list for the
// next At/After, so a long run's calendar allocates only up to its
// high-water mark of concurrently pending events.
func New() *Simulator {
	return &Simulator{pool: true}
}

// NewUnpooled returns a simulator that allocates a fresh record for every
// scheduled event — the original calendar's cost, retained so the
// equivalence suite and the allocation benchmarks can compare against it.
// Handle semantics (generation checks included) are identical to the
// pooled calendar, and table slots are still reused, so memory tracks the
// pending events rather than every event ever scheduled.
func NewUnpooled() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events that have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return s.live }

// NextAt returns the firing time of the earliest pending event. ok is false
// when the calendar is empty. It is the peek a clock driver needs to decide
// how long to sleep before the next Step.
func (s *Simulator) NextAt() (t Time, ok bool) {
	fromRun, ok := s.front()
	switch {
	case !ok:
		return 0, false
	case fromRun:
		return s.run[s.head].at, true
	default:
		return s.heap[0].at, true
	}
}

// FreeListLen returns the number of recycled records currently available
// for reuse (0 for an unpooled simulator); exposed for tests.
func (s *Simulator) FreeListLen() int {
	if !s.pool {
		return 0
	}
	return len(s.free)
}

// At schedules fn to run at absolute simulated time t. It panics if t is in
// the past; scheduling at the current instant is allowed and fires after all
// previously scheduled events for that instant (FIFO order).
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	e := s.record()
	s.seq++
	e.fn, e.seq = fn, s.seq
	en := entry{at: t, seq: s.seq, id: e.id}
	// The new entry carries the largest seq yet, so it sorts after the
	// run's last entry exactly when its time is not earlier.
	if n := len(s.run); n == 0 || t >= s.run[n-1].at {
		s.run = append(s.run, en)
	} else {
		s.push(en)
	}
	s.live++
	return Handle{ev: e, seq: e.seq, at: t}
}

// record takes a retired record off the free list, or makes one.
func (s *Simulator) record() *Event {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		if !s.pool {
			s.recs[id] = &Event{id: id}
		}
		return s.recs[id]
	}
	if !s.pool {
		e := &Event{id: uint32(len(s.recs))}
		s.recs = append(s.recs, e)
		return e
	}
	// Refill the free list a slab at a time: growing the calendar to its
	// high-water mark costs one allocation per batch, not per event.
	base := uint32(len(s.recs))
	slab := make([]Event, eventSlabSize)
	for i := range slab {
		slab[i].id = base + uint32(i)
		s.recs = append(s.recs, &slab[i])
	}
	for i := eventSlabSize - 1; i > 0; i-- {
		s.free = append(s.free, base+uint32(i))
	}
	return &slab[0]
}

// After schedules fn to run d after the current simulated time.
func (s *Simulator) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// recycle retires a record that has left the calendar: its incarnation is
// closed (so stale handles and any leftover entry go inert) and its id is
// returned to the free list.
func (s *Simulator) recycle(e *Event) {
	e.seq = retired
	e.fn = nil
	s.free = append(s.free, e.id)
}

// Cancel removes a scheduled event from the calendar. It reports whether the
// event was still pending; cancelling an already-fired, already-cancelled or
// zero handle is a harmless no-op that returns false and can never disturb a
// recycled record (the handle's incarnation no longer matches).
func (s *Simulator) Cancel(h Handle) bool {
	e := h.ev
	if e == nil || e.seq != h.seq {
		return false
	}
	e.cancelled = e.seq
	s.recycle(e)
	s.live--
	s.stale++
	if s.stale > s.live {
		s.sweep()
	}
	return true
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	fromRun, ok := s.front()
	if !ok {
		return false
	}
	var en entry
	if fromRun {
		en = s.run[s.head]
		s.advanceRun()
	} else {
		en = s.pop()
	}
	e := s.recs[en.id]
	s.now = en.at
	s.executed++
	s.live--
	fn := e.fn
	// Recycle before running the callback: the fired incarnation is over,
	// so the callback (and anything it schedules) may reuse the record —
	// a handle to the fired event is already inert by incarnation check.
	s.recycle(e)
	fn()
	return true
}

// Run fires events until the calendar drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with firing time <= t, then advances the clock to t.
// Events scheduled exactly at t do fire.
func (s *Simulator) RunUntil(t Time) {
	for {
		next, ok := s.NextAt()
		if !ok || next > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunLimit fires at most n events; it returns the number actually fired.
// It exists as a guard for tests that want to bound runaway simulations.
func (s *Simulator) RunLimit(n uint64) uint64 {
	var fired uint64
	for fired < n && s.Step() {
		fired++
	}
	return fired
}

// --- calendar internals --------------------------------------------------

// isStale reports whether en was orphaned by Cancel.
func (s *Simulator) isStale(en entry) bool { return s.recs[en.id].seq != en.seq }

// front drops cancelled entries from the heads of the run and the heap and
// reports which of the two holds the earliest pending event.
func (s *Simulator) front() (fromRun, ok bool) {
	for len(s.run) > 0 && s.isStale(s.run[s.head]) {
		s.advanceRun()
		s.stale--
	}
	for len(s.heap) > 0 && s.isStale(s.heap[0]) {
		s.pop()
		s.stale--
	}
	switch {
	case len(s.run) == 0:
		return false, len(s.heap) > 0
	case len(s.heap) == 0:
		return true, true
	default:
		return s.run[s.head].before(s.heap[0]), true
	}
}

// advanceRun consumes the run's head. The consumed prefix is compacted away
// once it is at least half the run, so the backing array stays within a
// constant factor of the entries still in it; a fully consumed run is
// empty (head 0), which keeps len(s.run) > 0 meaning "has a head".
func (s *Simulator) advanceRun() {
	s.head++
	if 2*s.head >= len(s.run) {
		n := copy(s.run, s.run[s.head:])
		s.run = s.run[:n] // reslicing in place: no write barrier
		s.head = 0
	}
}

// sweep drops every cancelled entry from the run and the heap; Cancel calls
// it once stale entries outnumber live ones, so its cost amortises to O(1)
// per cancel and both backing arrays stay within a constant factor of
// Pending. Removing entries cannot change the (at, seq) firing order.
func (s *Simulator) sweep() {
	run := s.run[:0]
	for _, en := range s.run[s.head:] {
		if !s.isStale(en) {
			run = append(run, en)
		}
	}
	s.run, s.head = run, 0
	h := s.heap[:0]
	for _, en := range s.heap {
		if !s.isStale(en) {
			h = append(h, en)
		}
	}
	s.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	s.stale = 0
}

// push adds en to the heap.
func (s *Simulator) push(en entry) {
	s.heap = append(s.heap, en)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !en.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

// pop removes and returns the heap's minimum.
func (s *Simulator) pop() entry {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n] // reslicing in place: no write barrier
	if n > 0 {
		s.down(0)
	}
	return top
}

// down restores the heap property below i.
func (s *Simulator) down(i int) {
	h := s.heap
	n := len(h)
	en := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(en) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = en
}
