// Package iommu models the I/O Memory Management Unit: per-guest I/O page
// tables translating I/O virtual addresses (IOVAs) to host physical
// addresses (HPAs), populated by the VFIO driver's DMA-mapping path (Fig. 6
// "mapping") and consulted by device DMA engines on every transfer.
package iommu

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// IOMMU is the host's translation unit.
type IOMMU struct {
	k        *sim.Kernel
	pageSize int64
	nextID   int
	domains  map[int]*Domain

	// MapCostPerPage is the cost of installing one I/O page-table entry.
	MapCostPerPage time.Duration

	// Faults, when non-nil, can fail Map calls (transient DMA-map errors)
	// and inflate the per-PTE install cost.
	Faults *fault.Injector
}

// New creates an IOMMU whose page tables use the given granule (must match
// the host allocator's page size).
func New(k *sim.Kernel, pageSize int64) *IOMMU {
	return &IOMMU{
		k:              k,
		pageSize:       pageSize,
		domains:        make(map[int]*Domain),
		MapCostPerPage: 300 * time.Nanosecond,
	}
}

// Domain is one guest's I/O address space (one I/O page table). The
// translations are stored as a sorted list of extents, one per contiguous
// IOVA→HPA run, rather than one entry per page; the simulated install cost
// is still charged per page (MapCostPerPage).
type Domain struct {
	ID   int
	unit *IOMMU
	ext  []extent // sorted by iova, non-overlapping

	// MappedBytes tracks the total mapped size for reporting.
	MappedBytes int64
}

// extent maps the count IOVA pages from iova to the HPA pages from hpa.
type extent struct {
	iova, hpa, count int64
}

func (e extent) end() int64 { return e.iova + e.count }

// CreateDomain allocates a fresh, empty domain.
func (u *IOMMU) CreateDomain() *Domain {
	u.nextID++
	d := &Domain{ID: u.nextID, unit: u}
	u.domains[d.ID] = d
	return d
}

// DestroyDomain removes a domain and its translations.
func (u *IOMMU) DestroyDomain(d *Domain) {
	delete(u.domains, d.ID)
	d.ext, d.MappedBytes = nil, 0
}

// PageSize returns the translation granule.
func (u *IOMMU) PageSize() int64 { return u.pageSize }

// Domains returns the number of live domains — a conservation input for
// host-wide leak audits.
func (u *IOMMU) Domains() int { return len(u.domains) }

// TotalMappedPages returns the number of live translations summed across
// all domains.
func (u *IOMMU) TotalMappedPages() int {
	total := 0
	for _, d := range u.domains {
		total += d.MappedPages()
	}
	return total
}

// search returns the index of the first extent ending after iovaPage.
func (d *Domain) search(iovaPage int64) int {
	return sort.Search(len(d.ext), func(i int) bool { return d.ext[i].end() > iovaPage })
}

// Map installs translations for a host memory region starting at iovaBase.
// Pages are mapped in ascending IOVA order across the region's runs. The
// per-PTE update cost models the page-table walk and IOTLB maintenance.
// If any page of the IOVA range is already mapped, Map installs nothing.
func (d *Domain) Map(p *sim.Proc, iovaBase int64, region *hostmem.Region) error {
	if iovaBase%d.unit.pageSize != 0 {
		return fmt.Errorf("iommu: unaligned IOVA base %#x", iovaBase)
	}
	// Injected failure fires before any PTE is installed, so a failed Map
	// leaves the domain untouched and the VFIO caller's cleanup path
	// (unpin + free) fully unwinds the attempt.
	if err := d.unit.Faults.Fail(fault.SiteDMAMap); err != nil {
		return fmt.Errorf("iommu: map IOVA %#x in domain %d: %w", iovaBase, d.ID, err)
	}
	start := iovaBase / d.unit.pageSize
	count := region.PageCount()
	i := d.search(start)
	if count > 0 && i < len(d.ext) && d.ext[i].iova < start+count {
		return fmt.Errorf("iommu: IOVA page %#x already mapped in domain %d", max(start, d.ext[i].iova), d.ID)
	}
	// Insert one extent per run at i, extending the previous extent instead
	// when the run continues it in both address spaces.
	iova := start
	for _, r := range region.Runs {
		if r.Count <= 0 {
			continue
		}
		if i > 0 && d.ext[i-1].end() == iova && d.ext[i-1].hpa+d.ext[i-1].count == r.Start {
			d.ext[i-1].count += r.Count
		} else {
			d.ext = slices.Insert(d.ext, i, extent{iova: iova, hpa: r.Start, count: r.Count})
			i++
		}
		iova += r.Count
	}
	d.MappedBytes += count * d.unit.pageSize
	if cost := d.unit.Faults.Inflate(fault.SiteDMAMap, time.Duration(count)*d.unit.MapCostPerPage); cost > 0 {
		p.Sleep(cost)
	}
	return nil
}

// Unmap removes translations for [iovaBase, iovaBase+bytes).
func (d *Domain) Unmap(p *sim.Proc, iovaBase, bytes int64) {
	start := iovaBase / d.unit.pageSize
	end := start + (bytes+d.unit.pageSize-1)/d.unit.pageSize
	i := d.search(start)
	j := i
	var keep []extent
	for ; j < len(d.ext) && d.ext[j].iova < end; j++ {
		e := d.ext[j]
		lo, hi := max(e.iova, start), min(e.end(), end)
		d.MappedBytes -= (hi - lo) * d.unit.pageSize
		if e.iova < lo {
			keep = append(keep, extent{iova: e.iova, hpa: e.hpa, count: lo - e.iova})
		}
		if hi < e.end() {
			keep = append(keep, extent{iova: hi, hpa: e.hpa + hi - e.iova, count: e.end() - hi})
		}
	}
	d.ext = slices.Replace(d.ext, i, j, keep...)
}

// Translate resolves an IOVA to an HPA (both in bytes). DMA to an unmapped
// IOVA returns an error — on real hardware this is an IOMMU fault that
// aborts the transaction, exactly the reason lazy page allocation cannot be
// used under passthrough (§3.2.3: "IOMMU cannot handle page faults during
// DMA operations").
func (d *Domain) Translate(iova int64) (int64, error) {
	hpa, ok := d.TranslatePage(iova / d.unit.pageSize)
	if !ok {
		return 0, fmt.Errorf("iommu: fault: IOVA %#x unmapped in domain %d", iova, d.ID)
	}
	return hpa*d.unit.pageSize + iova%d.unit.pageSize, nil
}

// TranslatePage resolves an IOVA page number to an HPA page number.
func (d *Domain) TranslatePage(iovaPage int64) (int64, bool) {
	i := d.search(iovaPage)
	if i == len(d.ext) || d.ext[i].iova > iovaPage {
		return 0, false
	}
	return d.ext[i].hpa + iovaPage - d.ext[i].iova, true
}

// MappedPages returns the number of live translations.
func (d *Domain) MappedPages() int { return int(d.MappedBytes / d.unit.pageSize) }
