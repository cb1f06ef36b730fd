package sim

// abortSentinel is panicked out of park when the simulation is torn down so
// that parked coroutines unwind without executing further user code.
type abortSentinel struct{}

// Proc is a simulated thread. A Proc's methods must only be called by the
// coroutine running that Proc (they block and hand the baton back to the
// kernel); the sole exceptions are Name, ID, and Finished.
type Proc struct {
	k         *Kernel
	id        int
	name      string
	daemon    bool
	started   bool // body has begun executing (first resume happened)
	finished  bool
	parked    bool
	waitClass WaitClass
	waitObj   string
	// doneEv is fired on exit; embedded by value so spawning a Proc does
	// not allocate a separate Event record.
	doneEv Event

	// next resumes the coroutine (kernel side); yield parks it (proc
	// side); stop cancels it during abort.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Name returns the Proc's human-readable name.
func (p *Proc) Name() string { return p.name }

// ID returns the Proc's unique id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Finished reports whether the Proc's body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Now returns the current virtual time.
func (p *Proc) Now() Duration { return p.k.now }

// park hands the baton to the kernel and blocks until resumed. The wait
// class and object are surfaced in deadlock reports and probe events.
func (p *Proc) park(class WaitClass, obj string) {
	k := p.k
	if k.aborted {
		// Reached from deferred cleanup while this Proc unwinds: do not
		// hand the baton anywhere, just keep unwinding.
		panic(abortSentinel{})
	}
	p.waitClass, p.waitObj = class, obj
	p.parked = true
	if k.probing() {
		k.emit(ProbeBlock, class, obj, p, nil, 0)
	}
	if !p.yield(struct{}{}) || k.aborted {
		// yield returning false means the kernel stopped the coroutine
		// (abort); unwind without running further user code.
		p.parked = false
		panic(abortSentinel{})
	}
	p.parked = false
	p.waitClass, p.waitObj = WaitNone, ""
	if k.probing() {
		k.emit(ProbeUnblock, class, obj, p, nil, 0)
	}
}

// blockedOnString renders the wait target for deadlock reports.
func (p *Proc) blockedOnString() string {
	if p.waitObj == "" {
		return p.waitClass.String()
	}
	return p.waitClass.String() + " " + p.waitObj
}

// Sleep advances this Proc's virtual time by d. d <= 0 yields the processor
// without advancing time (other runnable Procs at the same instant run
// first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	at := k.now + d
	// Fast path: if no pending event is due at or before the wake time (and
	// the RunFor cutoff is not crossed), no other Proc can run during this
	// sleep — the scheduler would pop our own wakeup next. Advance the
	// clock inline and keep running: no heap traffic, no coroutine switch.
	// The sequence counter still advances so event numbering is identical
	// to the queued path, and the probe stream is byte-identical (the
	// block/unblock pair brackets the same instant-pair with nothing in
	// between, exactly as a queued wakeup with no intervening events).
	if k.running == p && !k.aborted &&
		(len(k.events.h) == 0 || k.events.minAt() > at) &&
		(k.deadline < 0 || at <= k.deadline) {
		k.seq++
		if k.probing() {
			p.waitClass = WaitSleep
			p.parked = true
			k.emit(ProbeBlock, WaitSleep, "", p, nil, 0)
			k.now = at
			p.parked = false
			p.waitClass = WaitNone
			k.emit(ProbeUnblock, WaitSleep, "", p, nil, 0)
			return
		}
		k.now = at
		return
	}
	k.schedule(at, p)
	p.park(WaitSleep, "")
}

// Yield reschedules the Proc at the current instant, letting other runnable
// Procs execute first.
func (p *Proc) Yield() { p.Sleep(0) }

// Join blocks until q finishes.
func (p *Proc) Join(q *Proc) { q.doneEv.Await(p) }
