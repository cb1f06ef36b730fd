package iommu

import (
	"fmt"
	"testing"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

func setup() (*sim.Kernel, *hostmem.Allocator, *IOMMU) {
	k := sim.NewKernel(1)
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 1 << 30
	mem := hostmem.New(k, cfg)
	return k, mem, New(k, mem.PageSize())
}

func TestMapAndTranslate(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		if err := dom.Map(p, 0, region); err != nil {
			t.Fatal(err)
		}
		if dom.MappedPages() != 4 {
			t.Errorf("mapped pages = %d", dom.MappedPages())
		}
		hpa, err := dom.Translate(2*mb + 100)
		if err != nil {
			t.Fatal(err)
		}
		// Page-offset must be preserved.
		if hpa%mem.PageSize() != 100 {
			t.Errorf("offset not preserved: hpa=%#x", hpa)
		}
	})
	k.Run()
}

func TestTranslateUnmappedFaults(t *testing.T) {
	k, _, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		if _, err := dom.Translate(0); err == nil {
			t.Error("translate of empty domain should fault")
		}
	})
	k.Run()
}

func TestDoubleMapRejected(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r1, _ := mem.Allocate(p, 4*mb)
		r2, _ := mem.Allocate(p, 4*mb)
		if err := dom.Map(p, 0, r1); err != nil {
			t.Fatal(err)
		}
		if err := dom.Map(p, 0, r2); err == nil {
			t.Error("overlapping IOVA map accepted")
		}
	})
	k.Run()
}

func TestUnalignedIOVARejected(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		if err := dom.Map(p, 4096, r); err == nil {
			t.Error("unaligned IOVA accepted")
		}
	})
	k.Run()
}

func TestUnmapRemovesTranslations(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 8*mb)
		dom.Map(p, 16*mb, r)
		dom.Unmap(p, 16*mb, 8*mb)
		if dom.MappedPages() != 0 {
			t.Errorf("mapped pages after unmap = %d", dom.MappedPages())
		}
		if dom.MappedBytes != 0 {
			t.Errorf("mapped bytes = %d", dom.MappedBytes)
		}
		if _, err := dom.Translate(16 * mb); err == nil {
			t.Error("translate after unmap should fault")
		}
	})
	k.Run()
}

func TestDomainsIsolated(t *testing.T) {
	k, mem, u := setup()
	a, b := u.CreateDomain(), u.CreateDomain()
	if a.ID == b.ID {
		t.Fatal("duplicate domain ids")
	}
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		a.Map(p, 0, r)
		if _, err := b.Translate(0); err == nil {
			t.Error("domain b sees domain a's mapping")
		}
	})
	k.Run()
}

func TestMapChargesPerPageCost(t *testing.T) {
	k, mem, u := setup()
	u.MapCostPerPage = 1000 // 1µs
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 8*mb) // 4 pages
		before := p.Now()
		dom.Map(p, 0, r)
		if got := p.Now() - before; got != 4000 {
			t.Errorf("map cost = %v, want 4µs", got)
		}
	})
	k.Run()
}

func TestDestroyDomain(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 4*mb)
		if err := dom.Map(p, 0, r); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	u.DestroyDomain(dom)
	if dom.MappedPages() != 0 {
		t.Errorf("mapped pages after destroy = %d", dom.MappedPages())
	}
	if _, err := dom.Translate(0); err == nil {
		t.Error("translate after destroy should fault")
	}
	if u.Domains() != 0 || u.TotalMappedPages() != 0 {
		t.Errorf("domains/total pages = %d/%d, want 0/0", u.Domains(), u.TotalMappedPages())
	}
}

func TestTranslatePage(t *testing.T) {
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		dom.Map(p, 0, r)
		if _, ok := dom.TranslatePage(0); !ok {
			t.Error("page 0 not mapped")
		}
		if _, ok := dom.TranslatePage(5); ok {
			t.Error("page 5 mapped unexpectedly")
		}
	})
	k.Run()
}

func TestCollidingMapInstallsNothing(t *testing.T) {
	// A region whose IOVA range overlaps an existing mapping partway through
	// must leave the domain exactly as it was: the VFIO caller frees the
	// region's pages on error, so any installed page would be a stale
	// translation to freed memory.
	k, mem, u := setup()
	dom := u.CreateDomain()
	k.Go("t", func(p *sim.Proc) {
		r1, _ := mem.Allocate(p, 4*mb) // 2 pages at IOVA 4 MB
		r2, _ := mem.Allocate(p, 8*mb) // 4 pages at IOVA 0, colliding at 4 MB
		if err := dom.Map(p, 4*mb, r1); err != nil {
			t.Fatal(err)
		}
		err := dom.Map(p, 0, r2)
		if want := fmt.Sprintf("iommu: IOVA page %#x already mapped in domain %d", 2, dom.ID); err == nil || err.Error() != want {
			t.Fatalf("colliding map error = %v, want %q", err, want)
		}
		if dom.MappedPages() != 2 || dom.MappedBytes != 4*mb {
			t.Errorf("after collision: pages=%d bytes=%d, want 2 and %d", dom.MappedPages(), dom.MappedBytes, 4*mb)
		}
		if _, err := dom.Translate(0); err == nil {
			t.Error("IOVA 0 translated after a rejected map")
		}
	})
	k.Run()
}

// FuzzDomainOps runs random Map/Unmap/Translate sequences against a
// per-page reference model (IOVA page -> HPA page). Regions are built by
// hand from several runs so extents coalesce, split and abut.
func FuzzDomainOps(f *testing.F) {
	f.Add([]byte{0, 4, 3, 2, 0, 0, 6, 1, 1, 2, 5, 0})
	f.Add([]byte{0, 0, 9, 9, 1, 2, 2, 0, 0, 4, 4, 3, 2, 1, 1, 1})
	f.Add([]byte("07011Z10")) // map, then unmap the head of the extent
	f.Fuzz(func(t *testing.T, ops []byte) {
		k, _, u := setup()
		dom := u.CreateDomain()
		ps := u.PageSize()
		ref := map[int64]int64{}
		k.Go("t", func(p *sim.Proc) {
			for i := 0; i+3 < len(ops); i += 4 {
				iova := int64(ops[i+1] % 32)
				switch ops[i] % 3 {
				case 0: // Map 1-3 runs; consecutive runs may be HPA-contiguous.
					r := &hostmem.Region{}
					hpa := int64(ops[i+2]) * 4
					for j := 0; j <= int(ops[i+3]%3); j++ {
						n := int64(ops[i+3]>>(2+2*j)&3) + 1
						r.Runs = append(r.Runs, hostmem.Run{Start: hpa, Count: n})
						hpa += n + int64(ops[i+2]>>(j+5)&1)
					}
					var pages []int64
					r.Pages(func(pg int64) { pages = append(pages, pg) })
					collide := int64(-1)
					for j := range pages {
						if _, ok := ref[iova+int64(j)]; ok {
							collide = iova + int64(j)
							break
						}
					}
					err := dom.Map(p, iova*ps, r)
					if (err != nil) != (collide >= 0) {
						t.Fatalf("op %d: Map(%d, %v) = %v, first collision %d", i, iova, r.Runs, err, collide)
					}
					if collide >= 0 {
						if want := fmt.Sprintf("iommu: IOVA page %#x already mapped in domain %d", collide, dom.ID); err.Error() != want {
							t.Fatalf("op %d: error %q, want %q", i, err, want)
						}
						continue
					}
					for j, pg := range pages {
						ref[iova+int64(j)] = pg
					}
				case 1: // Unmap
					n := int64(ops[i+2] % 8)
					dom.Unmap(p, iova*ps, n*ps-int64(ops[i+3]%2)) // partial last page rounds up
					for pg := iova; pg < iova+n; pg++ {
						delete(ref, pg)
					}
				case 2: // Translate, with an in-page offset
					off := int64(ops[i+2])
					hpa, err := dom.Translate(iova*ps + off)
					want, ok := ref[iova]
					if (err == nil) != ok || (ok && hpa != want*ps+off) {
						t.Fatalf("op %d: Translate(page %d) = %d, %v; want page %d mapped=%v", i, iova, hpa, err, want, ok)
					}
				}
				if dom.MappedPages() != len(ref) || dom.MappedBytes != int64(len(ref))*ps || u.TotalMappedPages() != len(ref) {
					t.Fatalf("op %d: pages=%d bytes=%d total=%d, want %d pages", i, dom.MappedPages(), dom.MappedBytes, u.TotalMappedPages(), len(ref))
				}
			}
			for iova, want := range ref {
				if hpa, ok := dom.TranslatePage(iova); !ok || hpa != want {
					t.Fatalf("final: page %d -> (%d, %v), want %d", iova, hpa, ok, want)
				}
			}
		})
		k.Run()
	})
}
