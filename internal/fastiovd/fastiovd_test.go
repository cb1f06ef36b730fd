package fastiovd

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/kvm"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

type rig struct {
	k   *sim.Kernel
	mem *hostmem.Allocator
	h   *kvm.KVM
	mod *Module
}

func newRig() *rig {
	k := sim.NewKernel(1)
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 2 << 30
	mem := hostmem.New(k, cfg)
	h := kvm.New(k, mem)
	mod := New(k, mem)
	h.Hook = mod.OnEPTFault
	return &rig{k: k, mem: mem, h: h, mod: mod}
}

func TestLazyZeroOnFirstFault(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, region)
		r.mod.Register(p, vm.PID, region)
		if r.mod.Tracked(vm.PID) != 8 {
			t.Fatalf("tracked %d pages, want 8", r.mod.Tracked(vm.PID))
		}
		// Guest reads everything: each first touch must zero just in time.
		if err := vm.TouchRange(p, 0, 16*mb, false); err != nil {
			t.Fatal(err)
		}
		if r.mod.Tracked(vm.PID) != 0 {
			t.Errorf("%d pages still tracked after full touch", r.mod.Tracked(vm.PID))
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 {
		t.Errorf("lazy zeroing exposed %d dirty pages", r.mem.Violations)
	}
	if r.mod.LazyZeroed != 8 {
		t.Errorf("lazy-zeroed %d pages, want 8", r.mod.LazyZeroed)
	}
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d", r.mod.Corruptions)
	}
}

func TestUntouchedPagesNeverZeroed(t *testing.T) {
	// The second benefit of lazy zeroing (§3.2.3): memory the app never
	// touches is never cleared at all.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 32*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 32*mb, region)
		r.mod.Register(p, vm.PID, region)
		vm.TouchRange(p, 0, 8*mb, true) // touch only a quarter
	})
	r.k.Run()
	if r.mod.LazyZeroed != 4 {
		t.Errorf("lazy-zeroed %d pages, want 4", r.mod.LazyZeroed)
	}
	if r.mod.TrackedTotal() != 12 {
		t.Errorf("tracked = %d, want 12 untouched pages", r.mod.TrackedTotal())
	}
}

func TestRegistrationDefersZeroCost(t *testing.T) {
	// Registering must be orders of magnitude cheaper than zeroing: that
	// is the entire point of decoupling.
	r := newRig()
	var regCost, zeroCost time.Duration
	r.k.Go("t", func(p *sim.Proc) {
		regionA, _ := r.mem.Allocate(p, 512*mb)
		start := p.Now()
		r.mod.Register(p, 1, regionA)
		regCost = p.Now() - start

		regionB, _ := r.mem.Allocate(p, 512*mb)
		start = p.Now()
		r.mem.ZeroRegion(p, regionB)
		zeroCost = p.Now() - start
	})
	r.k.Run()
	if regCost*100 > zeroCost {
		t.Errorf("registration (%v) not ≪ zeroing (%v)", regCost, zeroCost)
	}
}

func TestInstantZeroingListPreventsCorruption(t *testing.T) {
	// Correct protocol: BIOS/kernel region goes on the instant-zeroing
	// list; the hypervisor writes it; guest boots and reads it. No page is
	// lazily zeroed after the hypervisor write → no corruption.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		kernelRegion, _ := r.mem.Allocate(p, 8*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		vm.AddSlot("kernel", 16*mb, 8*mb, kernelRegion)
		r.mod.Register(p, vm.PID, ram)
		r.mod.RegisterInstant(p, vm.PID, kernelRegion)
		// Hypervisor loads the kernel image.
		vm.HostWrite(p, 16*mb, 8*mb)
		// Guest boots: reads kernel, touches RAM.
		vm.TouchRange(p, 16*mb, 8*mb, false)
		vm.TouchRange(p, 0, 16*mb, true)
	})
	r.k.Run()
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d with instant-zeroing list", r.mod.Corruptions)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
	if r.mod.InstantZeroed != 4 {
		t.Errorf("instant-zeroed %d pages, want 4", r.mod.InstantZeroed)
	}
}

func TestMissingInstantListCausesCorruption(t *testing.T) {
	// Negative test (the §4.3.2 crash): track the kernel region like
	// ordinary RAM, let the hypervisor write it, then boot. The first
	// guest fault lazily zeroes the freshly written kernel — corruption.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		kernelRegion, _ := r.mem.Allocate(p, 8*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("kernel", 0, 8*mb, kernelRegion)
		r.mod.Register(p, vm.PID, kernelRegion) // WRONG: no instant list
		vm.HostWrite(p, 0, 8*mb)
		vm.TouchRange(p, 0, 8*mb, false)
	})
	r.k.Run()
	if r.mod.Corruptions == 0 {
		t.Error("expected corruption when hypervisor-written pages are lazily zeroed")
	}
}

func TestProactiveFaultFencesVirtioWrite(t *testing.T) {
	// Para-virtualized transfer (§4.3.2 second exception): the frontend
	// proactively faults the shared buffer (a read of the first byte of
	// each page) BEFORE the backend writes file data. Then the backend
	// write lands on an already-zeroed page and no later zeroing occurs.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		r.mod.Register(p, vm.PID, ram)

		buf := int64(4 * mb) // shared buffer GPA
		// Frontend: proactive EPT faults over the buffer.
		vm.TouchRange(p, buf, 4*mb, false)
		// Backend: writes file data into the buffer (host-side write).
		vm.HostWrite(p, buf, 4*mb)
		// Guest reads the file data.
		vm.TouchRange(p, buf, 4*mb, false)
	})
	r.k.Run()
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d with proactive faults", r.mod.Corruptions)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestMissingProactiveFaultCorruptsVirtioData(t *testing.T) {
	// Negative: backend writes first, THEN the guest's first touch faults
	// and fastiovd zeroes the freshly written file data.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		r.mod.Register(p, vm.PID, ram)
		vm.HostWrite(p, 4*mb, 4*mb)         // backend writes unfenced buffer
		vm.TouchRange(p, 4*mb, 4*mb, false) // guest read faults → zeroes data
	})
	r.k.Run()
	if r.mod.Corruptions == 0 {
		t.Error("expected corruption without proactive faults")
	}
}

func TestScrubberDrainsTable(t *testing.T) {
	r := newRig()
	r.mod.StartScrubber(time.Millisecond, 16)
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 64*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 64*mb, region)
		r.mod.Register(p, vm.PID, region)
		p.Sleep(100 * time.Millisecond)
	})
	r.k.Run()
	if r.mod.TrackedTotal() != 0 {
		t.Errorf("scrubber left %d pages tracked", r.mod.TrackedTotal())
	}
	if r.mod.ScrubZeroed != 32 {
		t.Errorf("scrub-zeroed %d pages, want 32", r.mod.ScrubZeroed)
	}
}

func TestScrubberAndFaultPathCompose(t *testing.T) {
	// Pages zeroed by the scrubber must not be re-zeroed by the fault path
	// and vice versa; the total equals the region page count.
	r := newRig()
	r.mod.StartScrubber(500*time.Microsecond, 2)
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 64*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 64*mb, region)
		r.mod.Register(p, vm.PID, region)
		// Slowly touch all pages while the scrubber races.
		for off := int64(0); off < 64*mb; off += 2 * mb {
			p.Sleep(300 * time.Microsecond)
			if err := vm.Touch(p, off, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.k.Run()
	if got := r.mod.LazyZeroed + r.mod.ScrubZeroed; got != 32 {
		t.Errorf("lazy(%d)+scrub(%d) = %d, want 32", r.mod.LazyZeroed, r.mod.ScrubZeroed, got)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestReleaseDropsTable(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 16*mb)
		r.mod.Register(p, 42, region)
		r.mod.Release(42)
	})
	r.k.Run()
	if r.mod.TrackedTotal() != 0 {
		t.Error("release left pages tracked")
	}
}

func TestTwoVMsTrackedIndependently(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ra, _ := r.mem.Allocate(p, 8*mb)
		rb, _ := r.mem.Allocate(p, 16*mb)
		vmA := r.h.CreateVM()
		vmB := r.h.CreateVM()
		vmA.AddSlot("ram", 0, 8*mb, ra)
		vmB.AddSlot("ram", 0, 16*mb, rb)
		r.mod.Register(p, vmA.PID, ra)
		r.mod.Register(p, vmB.PID, rb)
		if r.mod.Tracked(vmA.PID) != 4 || r.mod.Tracked(vmB.PID) != 8 {
			t.Fatalf("tracked A=%d B=%d", r.mod.Tracked(vmA.PID), r.mod.Tracked(vmB.PID))
		}
		vmA.TouchRange(p, 0, 8*mb, true)
		if r.mod.Tracked(vmA.PID) != 0 {
			t.Error("A still tracked")
		}
		if r.mod.Tracked(vmB.PID) != 8 {
			t.Error("touching A drained B's table")
		}
	})
	r.k.Run()
}

func TestFaultOnUntrackedPIDIsNoop(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 8*mb)
		r.mem.ZeroRegion(p, region)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		// No Register call: fastiovd must pass faults through untouched.
		vm.TouchRange(p, 0, 8*mb, false)
	})
	r.k.Run()
	if r.mod.LazyZeroed != 0 {
		t.Errorf("lazy-zeroed %d pages for untracked VM", r.mod.LazyZeroed)
	}
}

// zeroTime is the bandwidth time one 2M page takes to zero at the default
// 10 GiB/s stream rate.
const zeroTime = time.Second * (2 << 20) / (10 << 30)

// queuedPage is one deferred page in the scrubber's FIFO.
type queuedPage struct {
	pid  int
	page int64
}

// queued returns the scrubber's pending (pid, page) entries in FIFO order,
// expanding the queued runs into pages.
func queued(m *Module) []queuedPage {
	var out []queuedPage
	for _, r := range m.scrubQueue[m.scrubHead:] {
		for pg := r.start; pg < r.start+r.count; pg++ {
			out = append(out, queuedPage{pid: r.pid, page: pg})
		}
	}
	return out
}

func TestPageTrackedByTwoPIDsCountsTwice(t *testing.T) {
	// Teardown frees a VM's pages before its table is released, so a page
	// re-registered by the next VM is briefly tracked under both PIDs.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 8*mb)
		r.mod.Register(p, 1, region)
		r.mod.Register(p, 2, region)
	})
	r.k.Run()
	if got := r.mod.TrackedTotal(); got != 8 {
		t.Errorf("TrackedTotal = %d, want 8 (4 pages under each of 2 pids)", got)
	}
	if r.mod.Tracked(1) != 4 || r.mod.Tracked(2) != 4 {
		t.Errorf("Tracked = %d/%d, want 4/4", r.mod.Tracked(1), r.mod.Tracked(2))
	}
	r.mod.Release(1)
	if got := r.mod.TrackedTotal(); got != 4 {
		t.Errorf("TrackedTotal after releasing pid 1 = %d, want 4", got)
	}
}

func TestCrashDaemonRebuildsQueueInPIDPageOrder(t *testing.T) {
	r := newRig()
	r.mod.StartScrubber(time.Hour, 1)
	var want []queuedPage
	r.k.Go("t", func(p *sim.Proc) {
		low, _ := r.mem.Allocate(p, 6*mb)
		high, _ := r.mem.Allocate(p, 4*mb)
		// Register out of order: pid 7 with the high pages first, then
		// pid 3 with the low pages, then pid 7 again with the low pages.
		r.mod.Register(p, 7, high)
		r.mod.Register(p, 3, low)
		r.mod.Register(p, 7, low)
		add := func(pid int, reg *hostmem.Region) {
			reg.Pages(func(pg int64) { want = append(want, queuedPage{pid: pid, page: pg}) })
		}
		add(3, low)
		add(7, low)
		add(7, high)
		r.mod.CrashDaemon(p)
	})
	r.k.Run()
	got := queued(r.mod)
	if len(got) != len(want) {
		t.Fatalf("rebuilt queue has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue[%d] = %+v, want %+v (full %v)", i, got[i], want[i], got)
		}
	}
	if r.mod.ScrubberRestarts != 1 {
		t.Errorf("restarts = %d, want 1", r.mod.ScrubberRestarts)
	}
}

func TestFaultWaitsForInflightScrubClaim(t *testing.T) {
	// The scrubber claims the page at 1ms; the guest faults it 50µs later
	// and must wait for the zeroing to finish, not zero it again.
	r := newRig()
	r.mod.StartScrubber(time.Millisecond, 1)
	var woke time.Duration
	r.k.Go("guest", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 2*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 2*mb, region)
		r.mod.Register(p, vm.PID, region)
		p.Sleep(1050*time.Microsecond - p.Now())
		if err := vm.Touch(p, 0, false); err != nil {
			t.Error(err)
		}
		woke = p.Now() - r.h.EPTFaultCost
	})
	r.k.Run()
	if want := time.Millisecond + zeroTime; woke != want {
		t.Errorf("fault resumed at %v, want %v (scrub claim completion)", woke, want)
	}
	if r.mod.ScrubZeroed != 1 || r.mod.LazyZeroed != 0 {
		t.Errorf("scrub/lazy zeroed = %d/%d, want 1/0", r.mod.ScrubZeroed, r.mod.LazyZeroed)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestDaemonCrashMidZeroWakesWaitingFault(t *testing.T) {
	// The scrubber claims page 0 at 1ms, the guest faults it at 1.05ms and
	// waits, and the daemon crashes at 1.1ms mid-zero. The rollback
	// re-tracks the page; the waiting fault must wake and zero it itself.
	r := newRig()
	r.mod.StartScrubber(time.Millisecond, 1)
	done := false
	var woke time.Duration
	r.k.Go("guest", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 4*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 4*mb, region)
		r.mod.Register(p, vm.PID, region)
		p.Sleep(1050*time.Microsecond - p.Now())
		if err := vm.Touch(p, 0, false); err != nil {
			t.Error(err)
		}
		woke = p.Now() - r.h.EPTFaultCost
		done = true
	})
	r.k.GoAt(1100*time.Microsecond, "crash", func(p *sim.Proc) { r.mod.CrashDaemon(p) })
	r.k.RunFor(10 * time.Second)
	if !done {
		t.Fatal("guest fault never woke after the daemon crashed mid-zero")
	}
	if want := 1100*time.Microsecond + zeroTime; woke != want {
		t.Errorf("fault resumed at %v, want %v (woken by the crash, then zeroed)", woke, want)
	}
	if r.mod.LazyZeroed != 1 {
		t.Errorf("lazy-zeroed %d pages, want 1 (the rolled-back claim)", r.mod.LazyZeroed)
	}
	if r.mem.Violations != 0 || r.mod.Corruptions != 0 {
		t.Errorf("violations/corruptions = %d/%d", r.mem.Violations, r.mod.Corruptions)
	}
}

func TestScrubClaimAllocatesNothing(t *testing.T) {
	// A steady-state scrubber claim that no fault waits on must not
	// allocate: no wait event, no table or queue growth.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 512*mb)
		r.mod.Register(p, 1, region)
		allocs := testing.AllocsPerRun(100, func() { r.mod.scrub(p, 1) })
		if allocs != 0 {
			t.Errorf("scrubber claim allocates %.1f times, want 0", allocs)
		}
	})
	r.k.Run()
	if r.mod.ScrubZeroed != 101 {
		t.Errorf("scrub-zeroed %d pages, want 101", r.mod.ScrubZeroed)
	}
}

// BenchmarkFastiovdClaim measures one steady-state scrubber claim: dequeue,
// table lookup and delete, in-flight marker, and the zeroing of a dirty page
// on an idle bandwidth stream, with no fault waiting. CI gates it at 0
// allocs/op.
func BenchmarkFastiovdClaim(b *testing.B) {
	r := newRig()
	r.k.Go("bench", func(p *sim.Proc) {
		var region *hostmem.Region
		refill := func() {
			if region != nil {
				r.mem.Free(p, region)
			}
			region, _ = r.mem.Allocate(p, 1<<30)
			r.mod.Register(p, 1, region)
		}
		refill()
		r.mod.scrub(p, 1) // warm the in-flight list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r.mod.ScrubQueueLen() == 0 {
				b.StopTimer()
				refill()
				b.StartTimer()
			}
			r.mod.scrub(p, 1)
		}
	})
	r.k.Run()
}

func TestRegister1GiBAt4KAllocatesLittle(t *testing.T) {
	// 262,144 deferred pages must cost the host a handful of bitmap chunks
	// and one queued run, not an entry per page.
	k := sim.NewKernel(1)
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes, cfg.PageSize = 2<<30, 4<<10
	mem := hostmem.New(k, cfg)
	mod := New(k, mem)
	var allocs, bytes uint64
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 1<<30)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mod.Register(p, 1, region)
		runtime.ReadMemStats(&after)
		allocs, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	})
	k.Run()
	if mod.Tracked(1) != 262144 || mod.ScrubQueueLen() != 262144 {
		t.Fatalf("tracked %d, queued %d pages, want 262144", mod.Tracked(1), mod.ScrubQueueLen())
	}
	t.Logf("Register: %d allocations, %d bytes", allocs, bytes)
	if allocs > 128 || bytes > 128<<10 {
		t.Errorf("Register made %d allocations, %d bytes; want <= 128 and <= 128 KiB", allocs, bytes)
	}
}

// refModule is the per-page reference for the scrubber's bookkeeping: one
// FIFO entry per deferred page and a plain set per pid.
type refModule struct {
	fifo []queuedPage
	sets map[int]map[int64]bool
}

func (r *refModule) register(pid int, reg *hostmem.Region) {
	if r.sets[pid] == nil {
		r.sets[pid] = map[int64]bool{}
	}
	reg.Pages(func(pg int64) {
		r.sets[pid][pg] = true
		r.fifo = append(r.fifo, queuedPage{pid: pid, page: pg})
	})
}

// scrub pops up to n still-tracked pages, returning them in order.
func (r *refModule) scrub(n int) []queuedPage {
	var out []queuedPage
	for len(out) < n && len(r.fifo) > 0 {
		e := r.fifo[0]
		r.fifo = r.fifo[1:]
		if r.sets[e.pid][e.page] {
			delete(r.sets[e.pid], e.page)
			out = append(out, e)
		}
	}
	return out
}

// rebuild is CrashDaemon's queue: every tracked page in (pid, page) order.
func (r *refModule) rebuild() {
	r.fifo = nil
	var pids []int
	for pid := range r.sets {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		var pages []int64
		for pg := range r.sets[pid] {
			pages = append(pages, pg)
		}
		slices.Sort(pages)
		for _, pg := range pages {
			r.fifo = append(r.fifo, queuedPage{pid: pid, page: pg})
		}
	}
}

// FuzzScrubOrder runs Register/fault/scrub/Release/CrashDaemon
// interleavings against refModule: the scrubber must dequeue exactly the
// reference's (pid, page) sequence, and the queue and per-pid sets must
// match it after every op.
func FuzzScrubOrder(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 0, 2, 3, 1, 3, 2, 1, 0, 2, 1, 9, 9, 4, 0, 0, 0, 3, 0, 8, 0})
	f.Add([]byte{0, 1, 0, 5, 0, 1, 2, 5, 1, 1, 1, 0, 4, 0, 0, 0, 2, 1, 3, 0, 3, 0, 0, 0})
	f.Add([]byte("2000210010000")) // register pids 1 and 2, then crash
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newRig()
		r.mod.StartScrubber(time.Hour, 1)
		ref := &refModule{sets: map[int]map[int64]bool{}}
		r.k.Go("t", func(p *sim.Proc) {
			for i := 0; i+3 < len(ops); i += 4 {
				pid := int(ops[i+1]%3) + 1
				switch ops[i] % 5 {
				case 0: // Register 1-2 runs over a small page range
					reg := &hostmem.Region{}
					for j := 0; j <= int(ops[i+3]%2); j++ {
						reg.Runs = append(reg.Runs, hostmem.Run{
							Start: int64(ops[i+2]%40) + int64(j)*int64(ops[i+3]%50),
							Count: int64(ops[i+3]>>(2+3*j)&7) + 1,
						})
					}
					r.mod.Register(p, pid, reg)
					ref.register(pid, reg)
				case 1: // EPT fault on one page
					pg := int64(ops[i+2] % 64)
					before := r.mod.LazyZeroed
					r.mod.OnEPTFault(p, pid, pg)
					if hit := ref.sets[pid][pg]; hit != (r.mod.LazyZeroed == before+1) {
						t.Fatalf("op %d: fault on (%d, %d) zeroed=%v, tracked=%v", i, pid, pg, !hit, hit)
					}
					delete(ref.sets[pid], pg)
				case 2: // one scrubber pass
					n := int(ops[i+2]%6) + 1
					// The per-pid set check below pins which pages the
					// pass claimed; n == 1 passes pin the order.
					want := ref.scrub(n)
					before := r.mod.ScrubZeroed
					r.mod.scrub(p, n)
					if r.mod.ScrubZeroed-before != len(want) {
						t.Fatalf("op %d: scrub(%d) zeroed %d pages, want %v", i, n, r.mod.ScrubZeroed-before, want)
					}
				case 3:
					r.mod.Release(pid)
					delete(ref.sets, pid)
				case 4:
					r.mod.CrashDaemon(p)
					ref.rebuild()
				}
				if got := queued(r.mod); !slices.Equal(got, ref.fifo) || r.mod.ScrubQueueLen() != len(ref.fifo) {
					t.Fatalf("op %d: queue %v (len %d), want %v", i, got, r.mod.ScrubQueueLen(), ref.fifo)
				}
				total := 0
				for pid, set := range ref.sets {
					total += len(set)
					if r.mod.Tracked(pid) != len(set) {
						t.Fatalf("op %d: pid %d tracks %d pages, want %d", i, pid, r.mod.Tracked(pid), len(set))
					}
					for pg := range set {
						if !r.mod.tracked(pid, pg) {
							t.Fatalf("op %d: page (%d, %d) lost", i, pid, pg)
						}
					}
				}
				if r.mod.TrackedTotal() != total {
					t.Fatalf("op %d: TrackedTotal %d, want %d", i, r.mod.TrackedTotal(), total)
				}
			}
		})
		r.k.Run()
	})
}
