// Package lock implements the strict two-phase-locking lock manager
// underlying every scheduling policy in this repository.
//
// The paper's own analysis allows only exclusive (write) locks; shared
// (read) locks are implemented as well because the paper lists them as
// future work ("shared locks will make the dynamic cost an even more
// important factor"). The manager itself is policy-free: it reports
// conflicts and maintains wait queues, while the scheduling policy decides
// whether a conflicting requester wounds the holders (High Priority / CCA),
// waits (EDF-WP), or waits conditionally (EDF-HP with a higher-priority
// holder). Wait queues are kept in descending requester priority so that a
// release always grants the most urgent compatible waiters first.
//
// The tables are dense slices indexed by item and transaction ID (both are
// dense small integers throughout the repository), not maps: the lock
// manager sits on the engine's per-access hot path, and the slice layout
// makes the common operations — acquire with no conflict, release-all at
// commit — allocation-free. Each item's first holder is stored inline
// (exclusive-lock workloads never have a second), and ReleaseAll hands a
// transaction's held list back to a per-manager free list, so lists are
// reused across restarts and transactions and their memory tracks the
// transactions holding locks, not every transaction ever run.
package lock

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/txn"
)

// TxnID identifies a transaction instance to the lock manager.
type TxnID int

// Mode is a lock mode.
type Mode int

const (
	// Write is an exclusive lock (the only mode used in the paper).
	Write Mode = iota
	// Read is a shared lock (extension).
	Read
)

// String returns "W" or "R".
func (m Mode) String() string {
	if m == Read {
		return "R"
	}
	return "W"
}

// compatible reports whether two lock modes may be held simultaneously.
func compatible(a, b Mode) bool { return a == Read && b == Read }

// Request is a pending (blocked) lock request.
type Request struct {
	Txn      TxnID
	Item     txn.Item
	Mode     Mode
	Priority float64
}

// holder is one lock holder of an item.
type holder struct {
	txn  TxnID
	mode Mode
}

// entry is the per-item lock state. The first holder lives inline —
// workloads without shared locks never have co-holders, so the exclusive
// hot path touches no per-item heap state at all.
type entry struct {
	first    holder
	hasFirst bool
	extra    []holder // co-holders beyond the first (shared readers)
	waiters  []*Request
}

func (e *entry) holderCount() int {
	n := len(e.extra)
	if e.hasFirst {
		n++
	}
	return n
}

func (e *entry) holderMode(t TxnID) (Mode, bool) {
	if e.hasFirst && e.first.txn == t {
		return e.first.mode, true
	}
	for _, h := range e.extra {
		if h.txn == t {
			return h.mode, true
		}
	}
	return 0, false
}

// setOrAddHolder grants (or upgrades) t's hold on the item.
func (e *entry) setOrAddHolder(t TxnID, m Mode) {
	if e.hasFirst && e.first.txn == t {
		e.first.mode = m
		return
	}
	for i := range e.extra {
		if e.extra[i].txn == t {
			e.extra[i].mode = m
			return
		}
	}
	if !e.hasFirst {
		e.first = holder{txn: t, mode: m}
		e.hasFirst = true
		return
	}
	e.extra = append(e.extra, holder{txn: t, mode: m})
}

func (e *entry) removeHolder(t TxnID) {
	if e.hasFirst && e.first.txn == t {
		if n := len(e.extra); n > 0 {
			e.first = e.extra[n-1]
			e.extra = e.extra[:n-1]
		} else {
			e.hasFirst = false
		}
		return
	}
	for i := range e.extra {
		if e.extra[i].txn == t {
			n := len(e.extra)
			e.extra[i] = e.extra[n-1]
			e.extra = e.extra[:n-1]
			return
		}
	}
}

// hasConflict reports whether any holder other than t is incompatible with
// mode — the allocation-free core of Acquire and grantWaiters.
func (e *entry) hasConflict(t TxnID, mode Mode) bool {
	if e.hasFirst && e.first.txn != t && !compatible(mode, e.first.mode) {
		return true
	}
	for _, h := range e.extra {
		if h.txn != t && !compatible(mode, h.mode) {
			return true
		}
	}
	return false
}

// heldItem is one entry of a transaction's held-lock list.
type heldItem struct {
	item txn.Item
	mode Mode
}

// Manager tracks lock ownership and wait queues for a set of items.
type Manager struct {
	items   []entry      // indexed by item
	held    [][]heldItem // indexed by TxnID; nil when holding nothing
	spare   [][]heldItem // emptied held lists ready for reuse
	waiting []*Request   // indexed by TxnID; nil when not blocked
}

// NewManager returns an empty lock manager; the tables grow on demand.
func NewManager() *Manager { return &Manager{} }

// NewManagerSized returns an empty lock manager with tables pre-sized for
// items in [0, items) and transactions in [0, txns) — one allocation each
// instead of growth doublings.
func NewManagerSized(items, txns int) *Manager {
	return &Manager{
		items:   make([]entry, items),
		held:    make([][]heldItem, txns),
		waiting: make([]*Request, txns),
	}
}

// entry returns the per-item state, growing the table if needed.
func (m *Manager) entry(it txn.Item) *entry {
	if n := int(it) + 1; n > len(m.items) {
		if n < 2*len(m.items) {
			n = 2 * len(m.items)
		}
		grown := make([]entry, n)
		copy(grown, m.items)
		m.items = grown
	}
	return &m.items[int(it)]
}

// peek returns the per-item state without growing, or nil if never touched.
func (m *Manager) peek(it txn.Item) *entry {
	if int(it) < 0 || int(it) >= len(m.items) {
		return nil
	}
	return &m.items[int(it)]
}

// growTxn ensures the per-transaction tables cover t.
func (m *Manager) growTxn(t TxnID) {
	if n := int(t) + 1; n > len(m.held) {
		if n < 2*len(m.held) {
			n = 2 * len(m.held)
		}
		grownHeld := make([][]heldItem, n)
		copy(grownHeld, m.held)
		m.held = grownHeld
		grownWait := make([]*Request, n)
		copy(grownWait, m.waiting)
		m.waiting = grownWait
	}
}

func (m *Manager) heldOf(t TxnID) []heldItem {
	if int(t) < 0 || int(t) >= len(m.held) {
		return nil
	}
	return m.held[t]
}

// heldSetOrAdd records t's hold of item in its held list (or updates the
// mode on upgrade). The first acquisition of a transaction's life takes a
// list from the free list, allocating only when it is empty.
func (m *Manager) heldSetOrAdd(t TxnID, item txn.Item, mode Mode) {
	m.growTxn(t)
	hs := m.held[t]
	for i := range hs {
		if hs[i].item == item {
			hs[i].mode = mode
			return
		}
	}
	if hs == nil {
		if n := len(m.spare); n > 0 {
			m.held[t] = m.spare[n-1]
			m.spare = m.spare[:n-1]
		} else {
			m.held[t] = make([]heldItem, 0, 32)
		}
	}
	// Appending to the table slot itself updates only its length (no
	// write barrier) while the list has capacity.
	m.held[t] = append(m.held[t], heldItem{item: item, mode: mode})
}

// Holds reports whether t holds a lock on item (in any mode).
func (m *Manager) Holds(t TxnID, item txn.Item) bool {
	for _, h := range m.heldOf(t) {
		if h.item == item {
			return true
		}
	}
	return false
}

// HeldCount returns the number of items t holds locks on, in O(1).
func (m *Manager) HeldCount(t TxnID) int { return len(m.heldOf(t)) }

// HeldBy returns the items locked by t, in ascending order.
func (m *Manager) HeldBy(t TxnID) []txn.Item {
	hs := m.heldOf(t)
	out := make([]txn.Item, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.item)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Holders returns the transactions holding a lock on item, in ascending ID
// order (deterministic for the simulator).
func (m *Manager) Holders(item txn.Item) []TxnID {
	e := m.peek(item)
	if e == nil || e.holderCount() == 0 {
		return nil
	}
	out := make([]TxnID, 0, e.holderCount())
	if e.hasFirst {
		out = append(out, e.first.txn)
	}
	for _, h := range e.extra {
		out = append(out, h.txn)
	}
	sortTxnIDs(out)
	return out
}

// Conflicting returns the holders of item whose mode is incompatible with
// acquiring it in the given mode by t (excluding t itself), ascending.
func (m *Manager) Conflicting(t TxnID, item txn.Item, mode Mode) []TxnID {
	e := m.peek(item)
	if e == nil {
		return nil
	}
	var out []TxnID
	if e.hasFirst && e.first.txn != t && !compatible(mode, e.first.mode) {
		out = append(out, e.first.txn)
	}
	for _, h := range e.extra {
		if h.txn != t && !compatible(mode, h.mode) {
			out = append(out, h.txn)
		}
	}
	sortTxnIDs(out)
	return out
}

// sortTxnIDs sorts ascending without reflection or closures (holder sets
// are tiny — at most the co-readers of one item).
func sortTxnIDs(ids []TxnID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Acquire grants the lock to t if no incompatible holder exists, upgrading
// Read->Write when t is the sole holder. It reports whether the lock was
// granted; when it returns false the caller must decide between Wound
// (release the holders) and Wait (Enqueue). Acquire never enqueues.
//
// Acquire ranks the request above every queued one, so a reader always
// joins current readers; AcquireRanked applies the wait queue's order.
func (m *Manager) Acquire(t TxnID, item txn.Item, mode Mode) bool {
	return m.AcquireRanked(t, item, mode, math.Inf(1))
}

// AcquireRanked is Acquire for a requester of the given priority (the
// value Enqueue would queue it under). A reader joins current readers only
// if no queued writer ranks at or above it: the wait queue is
// priority-ordered, so the reader would queue behind that writer, and
// granting it anyway lets a stream of restarting readers keep a more
// urgent writer waiting forever. A reader that outranks every queued
// writer still bypasses them — it would queue ahead of them, and an
// enqueued request that is compatible with the holders would wait on
// nobody (invisible to the waits-for graph, so an undetectable stall).
func (m *Manager) AcquireRanked(t TxnID, item txn.Item, mode Mode, priority float64) bool {
	if m.Waiting(t) != nil {
		panic(fmt.Sprintf("lock: txn %d acquiring %v while blocked on another item", t, item))
	}
	e := m.entry(item)
	if cur, ok := e.holderMode(t); ok {
		if cur == mode || cur == Write {
			return true // re-entrant or already stronger
		}
		// Read -> Write upgrade: allowed only as sole holder.
		if e.holderCount() == 1 {
			e.setOrAddHolder(t, Write)
			m.heldSetOrAdd(t, item, Write)
			return true
		}
		return false
	}
	if e.hasConflict(t, mode) {
		return false
	}
	if mode == Read {
		for _, w := range e.waiters {
			if w.Mode == Write && w.Priority >= priority {
				return false
			}
		}
	}
	e.setOrAddHolder(t, mode)
	m.heldSetOrAdd(t, item, mode)
	return true
}

// Enqueue blocks t on item: the request joins the item's wait queue ordered
// by descending priority (FIFO among equal priorities). A transaction can
// wait for at most one item at a time.
func (m *Manager) Enqueue(r *Request) {
	if m.Waiting(r.Txn) != nil {
		panic(fmt.Sprintf("lock: txn %d enqueued twice", r.Txn))
	}
	m.entry(r.Item).insertWaiter(r)
	m.growTxn(r.Txn)
	m.waiting[r.Txn] = r
}

// insertWaiter queues r in descending priority order, after any request of
// equal priority.
func (e *entry) insertWaiter(r *Request) {
	pos := len(e.waiters)
	for i, w := range e.waiters {
		if r.Priority > w.Priority {
			pos = i
			break
		}
	}
	e.waiters = append(e.waiters, nil)
	copy(e.waiters[pos+1:], e.waiters[pos:])
	e.waiters[pos] = r
}

// removeWaiter drops r from the queue.
func (e *entry) removeWaiter(r *Request) {
	for i, w := range e.waiters {
		if w == r {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// Reprioritize re-queues t's blocked request (if any) under a new
// priority. The engine calls it when a waiter's effective priority moves
// (inheritance, dynamic evaluation), so grants and AcquireRanked follow
// current priorities rather than the ones in force at Enqueue. A request
// that moves ahead can become grantable (a reader passing a writer onto
// current readers), so the grant pass re-runs; the caller must wake the
// returned requests.
func (m *Manager) Reprioritize(t TxnID, priority float64) []*Request {
	r := m.Waiting(t)
	if r == nil || r.Priority == priority {
		return nil
	}
	e := m.entry(r.Item)
	e.removeWaiter(r)
	r.Priority = priority
	e.insertWaiter(r)
	return m.grantWaiters(r.Item)
}

// Waiting returns the request t is blocked on, or nil.
func (m *Manager) Waiting(t TxnID) *Request {
	if int(t) < 0 || int(t) >= len(m.waiting) {
		return nil
	}
	return m.waiting[t]
}

// Waiters returns the queued requests for item in grant order.
func (m *Manager) Waiters(item txn.Item) []*Request {
	e := m.peek(item)
	if e == nil {
		return nil
	}
	return append([]*Request(nil), e.waiters...)
}

// CancelWait removes t from whatever wait queue it is in (used when a
// blocked transaction is wounded) and reports whether t was waiting.
// Removing a queued request can unblock the requests behind it — e.g. a
// reader queued behind a now-cancelled writer on an item held only by
// readers — so the grant pass re-runs and the newly granted requests are
// returned; the caller must wake those transactions.
func (m *Manager) CancelWait(t TxnID) (granted []*Request, wasWaiting bool) {
	r := m.Waiting(t)
	if r == nil {
		return nil, false
	}
	m.waiting[t] = nil
	m.entry(r.Item).removeWaiter(r)
	return m.grantWaiters(r.Item), true
}

// ReleaseAll releases every lock held by t (commit or abort under strict
// 2PL) and grants queued requests that become compatible, front-to-back in
// ascending item order. It returns the newly granted requests; the caller
// is responsible for waking those transactions. The common case — no
// waiters anywhere — allocates nothing.
func (m *Manager) ReleaseAll(t TxnID) []*Request {
	hs := m.heldOf(t)
	sortHeld(hs)
	for _, h := range hs {
		m.items[h.item].removeHolder(t)
	}
	var granted []*Request
	for _, h := range hs {
		granted = append(granted, m.grantWaiters(h.item)...)
	}
	if hs != nil {
		// Only now: the grant pass above may hand lists to other
		// transactions and must not be given the one it iterates.
		m.held[t] = nil
		m.spare = append(m.spare, hs[:0])
	}
	return granted
}

// sortHeld orders a held list by ascending item (items are unique per
// transaction) without reflection or closures.
func sortHeld(hs []heldItem) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && hs[j].item < hs[j-1].item; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}

// grantWaiters grants the head of the queue (and, for readers, every
// following compatible reader) if the item's current holders allow it.
func (m *Manager) grantWaiters(item txn.Item) []*Request {
	e := m.entry(item)
	var granted []*Request
	for len(e.waiters) > 0 {
		r := e.waiters[0]
		if e.hasConflict(r.Txn, r.Mode) {
			break
		}
		e.waiters = e.waiters[1:]
		m.waiting[r.Txn] = nil
		e.setOrAddHolder(r.Txn, r.Mode)
		m.heldSetOrAdd(r.Txn, item, r.Mode)
		granted = append(granted, r)
		if r.Mode == Write {
			break
		}
	}
	return granted
}

// WaitsFor returns the transactions t is directly waiting on: the
// incompatible holders of the item t is blocked on, plus the transactions
// whose requests are queued ahead of t's (grants are strictly in queue
// order, so a request cannot be granted before everything ahead of it).
// The queue edges are a conservative over-approximation — two adjacent
// readers would in fact be granted together — which can at worst abort a
// deadlock victim slightly early, never miss a real cycle. The result is
// deduplicated and in ascending order.
func (m *Manager) WaitsFor(t TxnID) []TxnID {
	r := m.Waiting(t)
	if r == nil {
		return nil
	}
	seen := make(map[TxnID]bool)
	for _, h := range m.Conflicting(t, r.Item, r.Mode) {
		seen[h] = true
	}
	for _, w := range m.entry(r.Item).waiters {
		if w == r {
			break
		}
		if w.Txn != t {
			seen[w.Txn] = true
		}
	}
	out := make([]TxnID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DetectCycle searches the waits-for graph for a cycle reachable from t and
// returns the transactions on the cycle (empty if none). The waiting
// baselines (EDF-WP) use this for deadlock resolution; CCA never waits and
// therefore can never deadlock.
func (m *Manager) DetectCycle(t TxnID) []TxnID {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[TxnID]int)
	var stack []TxnID
	var cycle []TxnID
	var dfs func(v TxnID) bool
	dfs = func(v TxnID) bool {
		color[v] = grey
		stack = append(stack, v)
		for _, w := range m.WaitsFor(v) {
			switch color[w] {
			case grey:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == w {
						break
					}
				}
				return true
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		stack = stack[:len(stack)-1]
		return false
	}
	if dfs(t) {
		return cycle
	}
	return nil
}

// LockedItems returns how many items currently have at least one holder.
func (m *Manager) LockedItems() int {
	n := 0
	for i := range m.items {
		if m.items[i].holderCount() > 0 {
			n++
		}
	}
	return n
}

// CheckInvariants panics if the lock table violates its structural
// invariants (at most one writer per item, writer excludes readers,
// held/items tables consistent, waiters sorted). Engine integration tests
// call this at every scheduling point.
func (m *Manager) CheckInvariants() {
	for i := range m.items {
		e := &m.items[i]
		it := txn.Item(i)
		writers := 0
		checkHolder := func(h holder) {
			if h.mode == Write {
				writers++
			}
			if !m.Holds(h.txn, it) {
				panic(fmt.Sprintf("lock: held table missing txn %d item %d", h.txn, it))
			}
		}
		if e.hasFirst {
			checkHolder(e.first)
		}
		for _, h := range e.extra {
			checkHolder(h)
		}
		if writers > 1 {
			panic(fmt.Sprintf("lock: item %d has %d writers", it, writers))
		}
		if writers == 1 && e.holderCount() > 1 {
			panic(fmt.Sprintf("lock: item %d has a writer and %d holders", it, e.holderCount()))
		}
		for w := 1; w < len(e.waiters); w++ {
			if e.waiters[w-1].Priority < e.waiters[w].Priority {
				panic(fmt.Sprintf("lock: item %d wait queue out of order", it))
			}
		}
	}
	for t, items := range m.held {
		for _, h := range items {
			if _, ok := m.items[h.item].holderMode(TxnID(t)); !ok {
				panic(fmt.Sprintf("lock: held table has stale txn %d item %d", t, h.item))
			}
		}
	}
}
