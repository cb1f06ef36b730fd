// Package fastiovd is the reproduction of the paper's portable kernel
// module (§5): the heart of FastIOV's decoupled lazy zeroing (§4.3.2).
//
// It maintains a two-tier table — first tier indexed by the microVM's host
// PID, second tier a set of HPA pages — of physical pages whose zeroing has
// been deferred. Zeroing happens at the latest safe moment:
//
//   - on the page's first EPT fault (hooked into KVM),
//   - or earlier, by a background scrubber thread that drains the table
//     during idle time,
//   - or never by fastiovd, for pages on the instant-zeroing list (BIOS,
//     kernel image) which the hypervisor zeroes eagerly before writing.
//
// The module also audits correctness: zeroing a page that already holds
// live data (a hypervisor or virtio write that the protocol failed to
// fence) is recorded as a corruption — the crash scenario of §4.3.2.
//
// The table is stored so that a zeroing claim neither hashes nor allocates:
// the first tier is a slice indexed by PID (kvm assigns PIDs sequentially
// from 1), each second tier is a pagetab.Bitmap of HPA pages, and the event
// a concurrent fault waits on is created only when a fault actually waits.
// The scrubber's FIFO holds (pid, start, count) page runs, one per
// registered region run, and hands out their pages one at a time. Both are
// host-side storage: the simulated bookkeeping cost is still charged per
// registered page (RegisterCostPerPage).
package fastiovd

import (
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/pagetab"
	"fastiov/internal/sim"
)

// pidPages is one first-tier slot: the pages deferred for one microVM.
type pidPages struct {
	// pages is the second tier, the set of deferred HPA pages.
	pages pagetab.Bitmap
	// released marks a pid whose pages Release dropped. A zeroing claim
	// unwound after the owner's teardown must not resurrect the table: the
	// pages have returned to the allocator and are re-zeroed for their next
	// owner, so restoring the claim would strand a tracked entry forever
	// (the pid-churn regime, where VMs retire while the scrubber is
	// mid-zero). Registering for the pid again reclaims ownership.
	released bool
}

// scrubRun is count consecutive deferred pages of one pid in the
// scrubber's FIFO, starting at page start.
type scrubRun struct {
	pid          int
	start, count int64
}

// claim is one zeroing in progress. page is -1 once a fault can no longer
// find the claim: a newer claim on the same page supersedes it, and the
// first claim on a page to finish clears every marker for that page. Two
// claims on one page occur when a page freed by one VM's teardown is
// registered by the next VM before the first VM's Release.
type claim struct {
	id   uint64
	page int64
	// ev is what concurrent faults on the page wait on, created by the
	// first of them; nil while nobody waits.
	ev *sim.Event
}

// Module is one loaded instance of fastiovd.
type Module struct {
	k   *sim.Kernel
	mem *hostmem.Allocator

	// pids is the two-tier table: PID -> set of deferred HPA pages.
	pids []pidPages

	// scrubQueue[scrubHead:] holds page runs in registration order so the
	// background scrubber drains deterministically; scrubPages counts their
	// pages. Pages already zeroed via the fault path are skipped when
	// dequeued.
	scrubQueue []scrubRun
	scrubHead  int
	scrubPages int

	// inflight lists pages whose zeroing has been claimed but not yet
	// completed (the zeroer is waiting on memory bandwidth). A concurrent
	// EPT fault on such a page must wait for completion — this is the
	// "notify KVM upon completion" handshake of §5. It holds one claim
	// per proc currently zeroing (the scrubber and faulting guests), so a
	// linear scan is cheaper than hashing.
	inflight  []claim
	lastClaim uint64

	// RegisterCostPerPage models the bookkeeping insert per deferred page.
	RegisterCostPerPage time.Duration

	// Corruptions counts pages zeroed after live data was written to them —
	// each one would be a guest crash or data-loss bug on real hardware.
	Corruptions int

	// LazyZeroed / ScrubZeroed / InstantZeroed count pages cleared on the
	// EPT-fault path, by the background scrubber, and eagerly for the
	// instant-zeroing list, respectively.
	LazyZeroed    int
	ScrubZeroed   int
	InstantZeroed int

	// Faults, when non-nil, can stall the background scrubber: a failed
	// wake does no zeroing work, and a latency factor stretches the wake
	// interval. Set before StartScrubber.
	Faults *fault.Injector
	// ScrubberStalls counts wakes lost to injected stalls.
	ScrubberStalls int

	// scrubProc is the live scrubber daemon (nil before StartScrubber);
	// scrubInterval and scrubPagesPerPass remember its configuration so
	// CrashDaemon can restart it identically.
	scrubProc         *sim.Proc
	scrubInterval     time.Duration
	scrubPagesPerPass int
	// ScrubberRestarts counts daemon-crash failovers (CrashDaemon calls).
	ScrubberRestarts int
}

// New loads the module.
func New(k *sim.Kernel, mem *hostmem.Allocator) *Module {
	return &Module{
		k:                   k,
		mem:                 mem,
		RegisterCostPerPage: 120 * time.Nanosecond,
	}
}

// slot returns pid's first-tier slot, growing the tier to reach it.
func (m *Module) slot(pid int) *pidPages {
	for pid >= len(m.pids) {
		m.pids = append(m.pids, pidPages{})
	}
	return &m.pids[pid]
}

// tracked reports whether page is deferred for pid.
func (m *Module) tracked(pid int, page int64) bool {
	return pid < len(m.pids) && m.pids[pid].pages.Has(page)
}

// enqueue appends count pages of pid from start to the scrub queue,
// extending the tail run when the pages continue it.
func (m *Module) enqueue(pid int, start, count int64) {
	if count <= 0 {
		return
	}
	m.scrubPages += int(count)
	if n := len(m.scrubQueue); n > m.scrubHead {
		if t := &m.scrubQueue[n-1]; t.pid == pid && t.start+t.count == start {
			t.count += count
			return
		}
	}
	m.scrubQueue = append(m.scrubQueue, scrubRun{pid: pid, start: start, count: count})
}

// Register defers zeroing for every page of region, owned by microVM pid.
// This replaces eager zeroing in the VFIO DMA-map path; it is the hook
// passed to vfio.MapDMA.
func (m *Module) Register(p *sim.Proc, pid int, region *hostmem.Region) {
	s := m.slot(pid)
	s.released = false
	for _, r := range region.Runs {
		s.pages.AddRun(r.Start, r.Count)
		m.enqueue(pid, r.Start, r.Count)
	}
	if cost := time.Duration(region.PageCount()) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
}

// RegisterInstant puts region on the instant-zeroing list: the pages are
// zeroed immediately (charging bandwidth time) and never tracked, because
// the hypervisor is about to write live data (BIOS, kernel) into them.
func (m *Module) RegisterInstant(p *sim.Proc, pid int, region *hostmem.Region) {
	before := m.mem.ZeroedBytes
	m.mem.ZeroRegion(p, region)
	m.InstantZeroed += int((m.mem.ZeroedBytes - before) / m.mem.PageSize())
}

// OnEPTFault is the KVM fault hook (kvm.FaultHook): if the faulting page is
// tracked for pid, zero it now and drop it from the table. If another
// thread (the scrubber) is already zeroing the page, wait for it to finish
// before letting KVM install the EPT entry. A claim unwound by a daemon
// crash also wakes its waiters, after re-tracking the page; the fault then
// zeroes the page itself.
func (m *Module) OnEPTFault(p *sim.Proc, pid int, hpaPage int64) {
	if m.lazyZero(p, pid, hpaPage) {
		return
	}
	if ev := m.waitFor(hpaPage); ev != nil {
		ev.Await(p)
		m.lazyZero(p, pid, hpaPage)
	}
}

// lazyZero claims and zeroes hpaPage on the fault path if it is tracked for
// pid, reporting whether it was.
func (m *Module) lazyZero(p *sim.Proc, pid int, hpaPage int64) bool {
	if !m.tracked(pid, hpaPage) {
		return false
	}
	m.claimAndZero(p, pid, hpaPage)
	m.LazyZeroed++
	return true
}

// waitFor returns the event a fault on hpaPage must wait on, or nil when no
// claim on the page is in flight.
func (m *Module) waitFor(hpaPage int64) *sim.Event {
	for i := range m.inflight {
		if c := &m.inflight[i]; c.page == hpaPage {
			if c.ev == nil {
				c.ev = sim.NewEvent(m.k, "fastiovd-zero")
			}
			return c.ev
		}
	}
	return nil
}

// forget hides every in-flight claim on hpaPage from waitFor.
func (m *Module) forget(hpaPage int64) {
	for i := range m.inflight {
		if m.inflight[i].page == hpaPage {
			m.inflight[i].page = -1
		}
	}
}

// claimAndZero removes the page from the table (claiming it), publishes an
// in-flight marker, performs the zeroing, and signals completion. If the
// zeroing Proc is unwound mid-zero (the scrubber daemon reaped at the end
// of a Run phase, or killed by a daemon crash), the claim is rolled back so
// the page is still tracked — and still gets zeroed before any later
// exposure.
func (m *Module) claimAndZero(p *sim.Proc, pid int, hpaPage int64) {
	m.pids[pid].pages.Remove(hpaPage)
	m.forget(hpaPage)
	m.lastClaim++
	id := m.lastClaim
	m.inflight = append(m.inflight, claim{id: id, page: hpaPage})
	completed := false
	defer func() {
		m.forget(hpaPage)
		var ev *sim.Event
		for i, c := range m.inflight {
			if c.id == id {
				ev = c.ev
				m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
				break
			}
		}
		// Unwound mid-zero: restore the claim — unless the owner was torn
		// down in the meantime. A released pid's pages are back in the
		// allocator; re-tracking them would strand a table entry forever.
		if s := &m.pids[pid]; !completed && !s.released {
			s.pages.Add(hpaPage)
			m.enqueue(pid, hpaPage, 1)
		}
		// Waiters re-check the table when they wake, so they are woken on
		// the unwound path too — except while the kernel unwinds every
		// proc at the end of a Run phase, waiters included.
		if ev != nil && !m.k.Aborting() {
			ev.Fire(p)
		}
	}()
	m.zero(p, hpaPage)
	completed = true
}

// ScrubProc returns the live scrubber daemon (nil before StartScrubber).
func (m *Module) ScrubProc() *sim.Proc { return m.scrubProc }

// CrashDaemon models a fastiovd crash-and-failover (§5's daemon as a
// failure domain of its own): the scrubber thread dies mid-pass and its
// volatile scan state — the FIFO scrub queue — is lost. The two-tier table
// itself survives (it is the persistent registration state), so the new
// daemon instance conservatively rebuilds its queue by walking every
// tracked page in deterministic (pid, page) order, paying the bookkeeping
// insert per page again, and then resumes scrubbing with the original
// configuration. TrackedTotal is unchanged throughout, so the conservation
// audit cannot tell a failover happened — only the telemetry can.
//
// p is the proc driving the crash (the fleet's crash injector), which pays
// the reconstruction cost. No-op if the scrubber was never started.
func (m *Module) CrashDaemon(p *sim.Proc) {
	if m.scrubProc == nil {
		return
	}
	// Kill the daemon. If it is mid-zero, claimAndZero's deferred rollback
	// re-tracks the in-flight page and wakes any fault waiting on it, so
	// nothing is lost — only the queue order it had accumulated.
	m.k.Kill(m.scrubProc)
	m.scrubProc = nil
	// The dying pass may have re-queued its in-flight page; the rebuild
	// below supersedes the old queue entirely.
	m.scrubQueue, m.scrubHead, m.scrubPages = m.scrubQueue[:0], 0, 0
	for pid := range m.pids {
		m.pids[pid].pages.Range(func(pg int64) { m.enqueue(pid, pg, 1) })
	}
	if cost := time.Duration(m.scrubPages) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
	m.ScrubberRestarts++
	m.StartScrubber(m.scrubInterval, m.scrubPagesPerPass)
}

// zero clears one page, auditing the crash case: the page must not already
// hold live data (that data would be destroyed).
func (m *Module) zero(p *sim.Proc, hpaPage int64) {
	if m.mem.State(hpaPage) == hostmem.Written {
		m.Corruptions++
	}
	m.mem.ZeroPage(p, hpaPage)
}

// Tracked returns the number of pages still awaiting zeroing for pid.
func (m *Module) Tracked(pid int) int {
	if pid >= len(m.pids) {
		return 0
	}
	return m.pids[pid].pages.Len()
}

// TrackedTotal returns the table-wide deferred page count. A page tracked
// under two pids (freed by one VM's teardown before its Release, then
// registered by the next) counts once per pid.
func (m *Module) TrackedTotal() int {
	n := 0
	for i := range m.pids {
		n += m.pids[i].pages.Len()
	}
	return n
}

// ScrubQueueLen returns the length of the background scrub list — the
// deferred pages queued for the scrubber thread, in registration order.
func (m *Module) ScrubQueueLen() int { return m.scrubPages }

// Release drops pid's table without zeroing (VM teardown: the pages return
// to the allocator dirty and are re-zeroed for their next owner). The pid is
// marked released so an in-flight zeroing claim unwound later does not
// resurrect the table.
func (m *Module) Release(pid int) {
	*m.slot(pid) = pidPages{released: true}
}

// StartScrubber launches the module's background thread (§5): it
// periodically sweeps the two-tier table, zeroing up to pagesPerPass pages
// per wake and removing them, overlapping zeroing with other startup stages.
func (m *Module) StartScrubber(interval time.Duration, pagesPerPass int) {
	m.scrubInterval, m.scrubPagesPerPass = interval, pagesPerPass
	m.scrubProc = m.k.GoDaemon("fastiovd-scrub", func(p *sim.Proc) {
		for {
			p.Sleep(m.Faults.Inflate(fault.SiteScrubber, interval))
			if err := m.Faults.Fail(fault.SiteScrubber); err != nil {
				// Stalled wake: the scrubber thread lost its slice (e.g.
				// preempted by a higher-priority task) and zeroes nothing
				// this pass; deferred pages wait for the next wake or the
				// EPT-fault path.
				m.ScrubberStalls++
				continue
			}
			m.scrub(p, pagesPerPass)
		}
	})
}

// scrub is one scrubber pass: it zeroes up to n queued pages that are still
// tracked, in FIFO order.
func (m *Module) scrub(p *sim.Proc, n int) {
	for cleared := 0; cleared < n && m.scrubPages > 0; {
		head := &m.scrubQueue[m.scrubHead]
		pid, page := head.pid, head.start
		head.start++
		head.count--
		m.scrubPages--
		if head.count == 0 {
			m.scrubHead++
			// Compact once the consumed head is at least half the slice:
			// the copy is no longer than the pops that paid for it.
			if 2*m.scrubHead >= len(m.scrubQueue) {
				m.scrubQueue = m.scrubQueue[:copy(m.scrubQueue, m.scrubQueue[m.scrubHead:])]
				m.scrubHead = 0
			}
		}
		if !m.tracked(pid, page) {
			continue // already zeroed on the fault path
		}
		m.claimAndZero(p, pid, page)
		m.ScrubZeroed++
		cleared++
	}
}
