// Package kvm models the KVM hypervisor module: per-VM memory slots, the
// Extended Page Table (EPT), and the EPT-violation path (§4.3.2, Fig. 9)
// that FastIOV intercepts to implement lazy zeroing.
//
// Address spaces follow the paper's Fig. 3: the guest uses GPAs; memory
// slots map GPA ranges to host regions (HPAs); the EPT caches GPA→HPA after
// the first touch of each page raises an EPT violation that KVM resolves.
package kvm

import (
	"fmt"
	"sort"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/pagetab"
	"fastiov/internal/sim"
)

// FaultHook is invoked on every EPT violation with the resolving HPA page,
// before the EPT entry is installed. fastiovd registers its lazy-zeroing
// callback here (§5 "we modify the KVM module to trigger lazy zeroing
// before it inserts the EPT entry").
type FaultHook func(p *sim.Proc, pid int, hpaPage int64)

// KVM is the hypervisor kernel module.
type KVM struct {
	k   *sim.Kernel
	mem *hostmem.Allocator

	// EPTFaultCost is the fixed vmexit + resolve + EPT-insert cost of one
	// violation (excluding any hook work such as lazy zeroing).
	EPTFaultCost time.Duration

	// Hook, when non-nil, runs during every EPT violation.
	Hook FaultHook

	// TotalFaults counts EPT violations across all VMs, live and exited —
	// the module-wide counter the metrics sampler reads.
	TotalFaults int

	nextPID int
	vms     map[int]*VM
}

// New creates the module.
func New(k *sim.Kernel, mem *hostmem.Allocator) *KVM {
	return &KVM{
		k:            k,
		mem:          mem,
		EPTFaultCost: 15 * time.Microsecond,
		vms:          make(map[int]*VM),
	}
}

// MemSlot maps a GPA range to backing memory. Backing == nil means the slot
// is demand-paged: pages are allocated (and zeroed by the host fault
// handler) on first touch — the non-passthrough fast path that SR-IOV's
// up-front DMA mapping forecloses (§3.2.3).
type MemSlot struct {
	Name    string
	GPABase int64
	Bytes   int64
	Backing *hostmem.Region

	// firstIdx[i] is the slot page index of Backing.Runs[i]'s first page:
	// hpaAt is O(1) for single-run backing (the common case: the
	// allocator's contiguous-run scan) and a binary search over the runs
	// for fragmented backing.
	firstIdx []int64
	demand   *pagetab.Table // slot page index -> demand-allocated HPA page (nil for backed slots)
}

// VM is one microVM as KVM sees it.
type VM struct {
	PID   int
	kvm   *KVM
	mem   *hostmem.Allocator
	slots []*MemSlot
	// ept is the set of GPA pages with an installed translation. The HPA
	// of each is fixed by its memory slot (hpaAt, or the demand table), so
	// a hit re-derives it rather than storing a second copy.
	ept pagetab.Bitmap

	// Faults counts EPT violations taken; Hits counts translations served
	// from the EPT without a fault. §6.5's "<1% overhead" argument rests on
	// Faults ≪ Hits for any real workload.
	Faults int
	Hits   int
}

// CreateVM registers a new microVM and returns its handle. The PID is the
// host process id fastiovd uses as its first-tier hash key.
func (h *KVM) CreateVM() *VM {
	h.nextPID++
	vm := &VM{
		PID: h.nextPID,
		kvm: h,
		mem: h.mem,
	}
	h.vms[vm.PID] = vm
	return vm
}

// DestroyVM removes the VM. Demand-allocated pages are freed; backed
// regions are owned (and freed) by the VFIO/hypervisor layer.
func (h *KVM) DestroyVM(p *sim.Proc, vm *VM) {
	for _, s := range vm.slots {
		if s.demand.Len() == 0 {
			continue
		}
		pages := make([]int64, 0, s.demand.Len())
		s.demand.Range(func(_, hpa int64) { pages = append(pages, hpa) })
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		r := &hostmem.Region{Bytes: int64(len(pages)) * h.mem.PageSize()}
		for _, hpa := range pages {
			r.Runs = append(r.Runs, hostmem.Run{Start: hpa, Count: 1})
		}
		h.mem.Free(p, r)
		s.demand = nil
	}
	delete(h.vms, vm.PID)
}

// LiveVMs returns the number of VMs created and not yet destroyed — a
// conservation input for host-wide leak audits.
func (h *KVM) LiveVMs() int { return len(h.vms) }

// DemandPages returns the total number of demand-faulted pages currently
// backing live VMs. DestroyVM returns them to the host allocator, so after
// a full teardown this must be zero.
func (h *KVM) DemandPages() int {
	total := 0
	for _, vm := range h.vms {
		for _, s := range vm.slots {
			total += s.demand.Len()
		}
	}
	return total
}

// AddSlot attaches a memory slot. Slots must not overlap.
func (vm *VM) AddSlot(name string, gpaBase, bytes int64, backing *hostmem.Region) (*MemSlot, error) {
	ps := vm.mem.PageSize()
	if gpaBase%ps != 0 {
		return nil, fmt.Errorf("kvm: unaligned slot base %#x", gpaBase)
	}
	for _, s := range vm.slots {
		if gpaBase < s.GPABase+s.Bytes && s.GPABase < gpaBase+bytes {
			return nil, fmt.Errorf("kvm: slot %q overlaps %q", name, s.Name)
		}
	}
	slot := &MemSlot{Name: name, GPABase: gpaBase, Bytes: bytes, Backing: backing}
	if backing != nil {
		if backing.PageCount()*ps < bytes {
			return nil, fmt.Errorf("kvm: backing region too small for slot %q", name)
		}
		slot.firstIdx = make([]int64, len(backing.Runs))
		var idx int64
		for i, r := range backing.Runs {
			slot.firstIdx[i] = idx
			idx += r.Count
		}
	} else {
		slot.demand = pagetab.New()
	}
	vm.slots = append(vm.slots, slot)
	return slot, nil
}

// hpaAt returns the HPA page backing slot-relative page index idx.
func (s *MemSlot) hpaAt(idx int64) int64 {
	i := 0
	if len(s.firstIdx) > 1 {
		i = sort.Search(len(s.firstIdx), func(i int) bool { return s.firstIdx[i] > idx }) - 1
	}
	return s.Backing.Runs[i].Start + idx - s.firstIdx[i]
}

// slotFor finds the slot containing gpa.
func (vm *VM) slotFor(gpa int64) (*MemSlot, error) {
	for _, s := range vm.slots {
		if gpa >= s.GPABase && gpa < s.GPABase+s.Bytes {
			return s, nil
		}
	}
	return nil, fmt.Errorf("kvm: GPA %#x outside guest memory (pid %d)", gpa, vm.PID)
}

// Touch models one guest access to gpa. On an EPT hit it is free (hardware
// translation; the HPA is re-derived from the slot). On a miss it takes the
// full violation path: resolve the HPA (allocating on demand for unbacked
// slots), run the fault hook (lazy zeroing), install the EPT entry, and
// charge the fault cost. Reads are checked against residual-data exposure
// (hostmem.GuestRead).
func (vm *VM) Touch(p *sim.Proc, gpa int64, write bool) error {
	hpa, err := vm.ResolveHPA(p, gpa)
	if err != nil {
		return err
	}
	if gpaPage := gpa / vm.mem.PageSize(); !vm.ept.Has(gpaPage) {
		if vm.kvm.Hook != nil {
			vm.kvm.Hook(p, vm.PID, hpa)
		}
		vm.ept.Add(gpaPage)
		vm.Faults++
		vm.kvm.TotalFaults++
		p.Sleep(vm.kvm.EPTFaultCost)
	} else {
		vm.Hits++
	}
	if write {
		vm.mem.WriteData(hpa)
	} else {
		vm.mem.GuestRead(hpa)
	}
	return nil
}

// TouchRange touches every page in [gpa, gpa+bytes).
func (vm *VM) TouchRange(p *sim.Proc, gpa, bytes int64, write bool) error {
	ps := vm.mem.PageSize()
	start := gpa / ps * ps
	for a := start; a < gpa+bytes; a += ps {
		if err := vm.Touch(p, a, write); err != nil {
			return err
		}
	}
	return nil
}

// HostWrite models the hypervisor writing into guest memory before or
// outside guest execution (BIOS/kernel image load, virtio backend buffer
// fill). Host writes use the host mapping directly — they do NOT take EPT
// faults (the first exception case of §4.3.2). The written pages are marked
// as holding live data; if fastiovd later zeroes one, that is the crash the
// instant-zeroing list exists to prevent.
func (vm *VM) HostWrite(p *sim.Proc, gpa, bytes int64) error {
	ps := vm.mem.PageSize()
	start := gpa / ps * ps
	for a := start; a < gpa+bytes; a += ps {
		hpa, err := vm.ResolveHPA(p, a)
		if err != nil {
			return err
		}
		vm.mem.WriteData(hpa)
	}
	return nil
}

// ResolveHPA translates a GPA to its HPA page through the slot tables
// (GPA→HVA→HPA in the paper's Fig. 9; we fold HVA into the slot lookup),
// allocating demand pages if needed: the host fault handler allocates and
// zeroes a demand page on its first use (standard lazy zeroing, available
// only without passthrough DMA).
func (vm *VM) ResolveHPA(p *sim.Proc, gpa int64) (int64, error) {
	ps := vm.mem.PageSize()
	slot, err := vm.slotFor(gpa)
	if err != nil {
		return 0, err
	}
	idx := (gpa - slot.GPABase) / ps
	if slot.Backing != nil {
		return slot.hpaAt(idx), nil
	}
	if hpa, ok := slot.demand.Get(idx); ok {
		return hpa, nil
	}
	r, err := vm.mem.Allocate(p, ps)
	if err != nil {
		return 0, err
	}
	hpa := r.Runs[0].Start
	vm.mem.ZeroPage(p, hpa)
	slot.demand.Set(idx, hpa)
	return hpa, nil
}

// EPTEntries returns the number of installed translations.
func (vm *VM) EPTEntries() int { return vm.ept.Len() }
