package sim

import "fmt"

// QueueStat tallies the Procs queued on the locks bound to it with
// TallyWaiters. Depth rises when a Proc parks on a bound lock and falls at
// the FIFO handoff that grants it the lock, not when it resumes; Peak is
// the largest Depth reached. Transitions during an abort unwind are not
// counted, and a waiter killed while parked is never granted, so it stays
// counted until the owner zeroes Depth.
type QueueStat struct {
	Depth, Peak int
}

func (q *QueueStat) enter(k *Kernel) {
	if q == nil || k.aborted {
		return
	}
	q.Depth++
	if q.Depth > q.Peak {
		q.Peak = q.Depth
	}
}

func (q *QueueStat) leave(k *Kernel) {
	if q == nil || k.aborted {
		return
	}
	q.Depth--
}

// Mutex is a simulated kernel mutex with FIFO handoff semantics: Unlock
// transfers ownership directly to the longest-waiting Proc, so starvation is
// impossible and lock acquisition order is deterministic.
//
// This mirrors the behaviour of a Linux kernel mutex under heavy contention
// (optimistic spinning is irrelevant in a DES — there is no true
// parallelism to spin against).
type Mutex struct {
	name    string
	owner   *Proc
	waiters []*Proc
	tally   *QueueStat

	// Contended counts Lock calls that had to wait; Acquisitions counts all
	// Lock calls. Experiments use these to report contention statistics.
	Contended    uint64
	Acquisitions uint64
}

// NewMutex returns a named mutex. The name appears in deadlock reports.
func NewMutex(name string) *Mutex { return &Mutex{name: name} }

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// TallyWaiters counts m's waiters in q (see QueueStat).
func (m *Mutex) TallyWaiters(q *QueueStat) { m.tally = q }

// Lock acquires m, blocking p until the mutex is available.
func (m *Mutex) Lock(p *Proc) {
	m.Acquisitions++
	if m.owner == nil {
		m.owner = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.name, p, nil, 0)
		}
		return
	}
	if m.owner == p {
		panic("sim: recursive Lock of " + m.name + " by " + p.name)
	}
	m.Contended++
	m.waiters = append(m.waiters, p)
	m.tally.enter(p.k)
	p.park(WaitMutex, m.name)
}

// TryLock acquires m if it is free and reports whether it succeeded.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.Acquisitions++
	m.owner = p
	if p.k.probing() {
		p.k.emit(ProbeAcquire, WaitMutex, m.name, p, nil, 0)
	}
	return true
}

// Unlock releases m, handing it to the longest-waiting Proc if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: Unlock of %s by non-owner %s", m.name, p.name))
	}
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitMutex, m.name, p, nil, 0)
	}
	// FIFO handoff: ownership transfers at the release instant, and the
	// releaser is the causal source of the waiter's wake-up. Waiters that
	// finished while parked (killed by a host crash) are skipped — handing
	// ownership to a dead proc would strand the mutex forever.
	for len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		if next.finished {
			continue
		}
		m.owner = next
		m.tally.leave(p.k)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.name, next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	m.owner = nil
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// rwWaiter is an entry in an RWMutex wait queue.
type rwWaiter struct {
	p     *Proc
	write bool
}

// RWMutex is a simulated fair reader/writer lock. Waiters queue in FIFO
// order; a batch of consecutive readers at the head of the queue is admitted
// together. Writers therefore cannot be starved by a reader stream, matching
// the fairness of Linux's rw_semaphore under contention.
type RWMutex struct {
	name    string
	readers int
	writer  *Proc
	waiters []rwWaiter
	tally   *QueueStat

	Contended    uint64
	Acquisitions uint64
}

// NewRWMutex returns a named reader/writer lock.
func NewRWMutex(name string) *RWMutex { return &RWMutex{name: name} }

// Name returns the lock's name.
func (rw *RWMutex) Name() string { return rw.name }

// TallyWaiters counts rw's waiters, readers and writers alike, in q.
func (rw *RWMutex) TallyWaiters(q *QueueStat) { rw.tally = q }

// RLock acquires a read (shared) hold.
func (rw *RWMutex) RLock(p *Proc) {
	rw.Acquisitions++
	if rw.writer == nil && len(rw.waiters) == 0 {
		rw.readers++
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.name, p, nil, 0)
		}
		return
	}
	rw.Contended++
	rw.waiters = append(rw.waiters, rwWaiter{p, false})
	rw.tally.enter(p.k)
	p.park(WaitRWRead, rw.name)
}

// RUnlock releases a read hold.
func (rw *RWMutex) RUnlock(p *Proc) {
	if rw.readers <= 0 {
		panic("sim: RUnlock of " + rw.name + " with no readers")
	}
	rw.readers--
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWRead, rw.name, p, nil, 0)
	}
	if rw.readers == 0 {
		rw.dispatch(p)
	}
}

// Lock acquires the write (exclusive) hold.
func (rw *RWMutex) Lock(p *Proc) {
	rw.Acquisitions++
	if rw.writer == nil && rw.readers == 0 && len(rw.waiters) == 0 {
		rw.writer = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.name, p, nil, 0)
		}
		return
	}
	rw.Contended++
	rw.waiters = append(rw.waiters, rwWaiter{p, true})
	rw.tally.enter(p.k)
	p.park(WaitRWWrite, rw.name)
}

// Unlock releases the write hold.
func (rw *RWMutex) Unlock(p *Proc) {
	if rw.writer != p {
		panic("sim: Unlock of " + rw.name + " by non-writer")
	}
	rw.writer = nil
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWWrite, rw.name, p, nil, 0)
	}
	rw.dispatch(p)
}

// dispatch admits the next writer, or the next batch of readers, from the
// head of the wait queue. Called with the lock free.
func (rw *RWMutex) dispatch(p *Proc) {
	// Waiters that finished while parked (killed by a host crash) are
	// dropped without being granted the lock.
	for len(rw.waiters) > 0 && rw.waiters[0].p.finished {
		rw.waiters = rw.waiters[1:]
	}
	if len(rw.waiters) == 0 {
		return
	}
	if rw.waiters[0].write {
		next := rw.waiters[0].p
		rw.waiters = rw.waiters[1:]
		rw.writer = next
		rw.tally.leave(p.k)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.name, next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	for len(rw.waiters) > 0 && !rw.waiters[0].write {
		next := rw.waiters[0].p
		rw.waiters = rw.waiters[1:]
		if next.finished {
			continue
		}
		rw.readers++
		rw.tally.leave(p.k)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.name, next, p, 0)
		}
		p.k.schedule(p.k.now, next)
	}
}

// resWaiter is an entry in a Resource wait queue.
type resWaiter struct {
	p *Proc
	n int64
}

// Resource is a counting semaphore with FIFO admission, used to model finite
// hardware capacity: CPU cores, memory-bandwidth streams, PCIe credits, NIC
// queue slots. Acquire(n) blocks until n units are available AND every
// earlier waiter has been admitted (no barging, so large requests are not
// starved by a stream of small ones).
type Resource struct {
	name  string
	cap   int64
	inUse int64
	waitq []resWaiter

	// busy is the time-weighted integral of held (unit-nanoseconds) up to
	// last, the instant of the latest counted transition. held follows
	// inUse except through abort unwinds, which are not counted.
	busy, held int64
	last       Duration

	// MaxInUse tracks the high-water mark, Waits the number of blocking
	// acquisitions.
	MaxInUse int64
	Waits    uint64
}

// NewResource returns a resource with the given capacity in abstract units.
func NewResource(name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{name: name, cap: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Cap returns the configured capacity.
func (r *Resource) Cap() int64 { return r.cap }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// Busy returns the busy integral (units held x time, 1 unit for 1 s reads
// as 1 s) through the latest acquire or release.
func (r *Resource) Busy() Duration { return Duration(r.busy) }

// BusyAt returns the busy integral extended to t at the current holding.
func (r *Resource) BusyAt(t Duration) Duration {
	return Duration(r.busy + r.held*int64(t-r.last))
}

// count advances the busy integral to now and applies delta to held.
func (r *Resource) count(k *Kernel, delta int64) {
	if k.aborted {
		return
	}
	r.busy += r.held * int64(k.now-r.last)
	r.last = k.now
	r.held += delta
}

// Acquire blocks p until n units are available.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d > capacity %d of %s", n, r.cap, r.name))
	}
	if len(r.waitq) == 0 && r.inUse+n <= r.cap {
		r.take(n)
		r.count(p.k, n)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitResource, r.name, p, nil, n)
		}
		return
	}
	r.Waits++
	r.waitq = append(r.waitq, resWaiter{p, n})
	p.park(WaitResource, r.name)
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(p *Proc, n int64) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: over-release of " + r.name)
	}
	r.count(p.k, -n)
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitResource, r.name, p, nil, n)
	}
	for len(r.waitq) > 0 {
		// Waiters that finished while parked (killed by a host crash) are
		// dropped without taking units — admitting them would leak capacity.
		if r.waitq[0].p.finished {
			r.waitq = r.waitq[1:]
			continue
		}
		if r.inUse+r.waitq[0].n > r.cap {
			break
		}
		w := r.waitq[0]
		r.waitq = r.waitq[1:]
		r.take(w.n)
		r.count(p.k, w.n)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitResource, r.name, w.p, p, w.n)
		}
		p.k.schedule(p.k.now, w.p)
	}
}

// Use acquires n units, sleeps for d, then releases: the idiom for "this
// operation occupies a core / a bandwidth stream for d". The release is
// deferred so that units are returned even if the Proc is unwound mid-wait
// (a daemon reaped at the end of a Run phase must not strand capacity).
func (r *Resource) Use(p *Proc, n int64, d Duration) {
	r.Acquire(p, n)
	defer r.Release(p, n)
	p.Sleep(d)
}

func (r *Resource) take(n int64) {
	r.inUse += n
	if r.inUse > r.MaxInUse {
		r.MaxInUse = r.inUse
	}
}

// WaitGroup mirrors sync.WaitGroup for simulated threads.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// Done decrements the counter, waking waiters when it reaches zero. The
// calling Proc is needed to schedule wakeups.
func (wg *WaitGroup) Done(p *Proc) {
	wg.count--
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			if p.k.probing() {
				p.k.emit(ProbeWake, WaitWG, "", w, p, 0)
			}
			p.k.schedule(p.k.now, w)
		}
		wg.waiters = nil
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park(WaitWG, "")
}

// Event is a one-shot broadcast: once fired, all current and future Await
// calls return immediately.
type Event struct {
	k       *Kernel
	name    string
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired event.
func NewEvent(k *Kernel, name string) *Event {
	e := newEvent(k)
	e.name = name
	return e
}

func newEvent(k *Kernel) *Event { return &Event{k: k} }

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event fired and wakes all waiters. Firing twice is a no-op.
func (e *Event) Fire(p *Proc) { e.fireBy(p) }

// fireBy fires the event attributing the wakeups to waker (nil when fired
// from outside the simulation).
func (e *Event) fireBy(waker *Proc) {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		if e.k.probing() {
			e.k.emit(ProbeWake, WaitEvent, e.name, w, waker, 0)
		}
		e.k.schedule(e.k.now, w)
	}
	e.waiters = nil
}

// Await blocks p until the event fires.
func (e *Event) Await(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.park(WaitEvent, e.name)
}

// Queue is an unbounded FIFO channel between simulated threads.
type Queue[T any] struct {
	name    string
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](name string) *Queue[T] { return &Queue[T]{name: name} }

// Push appends an item, waking one blocked Pop if present.
func (q *Queue[T]) Push(p *Proc, v T) {
	if q.closed {
		panic("sim: push to closed queue " + q.name)
	}
	q.items = append(q.items, v)
	// Skip waiters that finished while parked (killed by a host crash):
	// waking a dead proc would silently lose the wakeup and strand the item.
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.finished {
			continue
		}
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name, w, p, 0)
		}
		p.k.schedule(p.k.now, w)
		break
	}
}

// Close marks the queue closed; blocked and future Pops return ok=false once
// drained.
func (q *Queue[T]) Close(p *Proc) {
	q.closed = true
	for _, w := range q.waiters {
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name, w, p, 0)
		}
		p.k.schedule(p.k.now, w)
	}
	q.waiters = nil
}

// Pop removes the oldest item, blocking while the queue is empty and open.
// ok is false if the queue is closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.park(WaitQueue, q.name)
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
