package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/dataplane"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

// dpOutcome is one data-plane measurement point: both receive paths at one
// packet size, measured on a freshly booted FastIOV container.
type dpOutcome struct {
	Pass dataplane.Result
	Virt dataplane.Result
}

// dpSpec is one data-plane point: boot one FastIOV secure container and
// stream Packets packets of Size bytes through both receive paths. Every
// point gets a fresh host, which keeps points independent of sweep order.
type dpSpec struct {
	Packets int
	Size    int64
}

func (dpSpec) scope() string    { return "dataplane" }
func (s dpSpec) params() string { return fmt.Sprintf("packets=%d size=%d", s.Packets, s.Size) }

func (s dpSpec) run(_ *Exec, seed uint64) (*dpOutcome, error) {
	packets, size := s.Packets, s.Size
	opts, err := cluster.OptionsFor(cluster.BaselineFastIOV)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	var out dpOutcome
	var runErr error
	h.K.Go("dataplane", func(p *sim.Proc) {
		sb, err := h.Eng.RunPodSandbox(p, 0)
		if err != nil {
			runErr = err
			return
		}
		sb.Guest.WaitIfaceReady(p)
		mvm := sb.MVM
		window := int64(16 << 20)
		// Warm the RX window (driver zeroes its ring on allocation).
		if err := mvm.VM.TouchRange(p, 0, window, true); err != nil {
			runErr = err
			return
		}
		pt := &dataplane.Passthrough{
			NIC:    h.NIC,
			Domain: mvm.VFDevice().Domain(),
			Mem:    h.Mem,
			VM:     mvm.VM,
			Costs:  dataplane.DefaultCosts(),
		}
		out.Pass, err = pt.Stream(p, packets, size, 0, window)
		if err != nil {
			runErr = err
			return
		}
		vr := &dataplane.Virtio{Mem: h.Mem, VM: mvm.VM, Costs: dataplane.DefaultCosts()}
		out.Virt, err = vr.Stream(p, packets, size, 0, window)
		if err != nil {
			runErr = err
			return
		}
	})
	h.K.Run()
	if runErr != nil {
		return nil, runErr
	}
	if h.Mem.Violations != 0 {
		return nil, fmt.Errorf("dataplane: %d violations", h.Mem.Violations)
	}
	return &out, nil
}

func (dpSpec) fingerprint(out *dpOutcome) []byte {
	return fmt.Appendf(nil, "pass %+v\nvirt %+v\n", out.Pass, out.Virt)
}

// gbpsString renders per-seed throughputs as "9.87" or "9.87 ±0.12" Gbps.
func gbpsString(perSeed []float64) string {
	mean, half, n := stats.FloatEstimateOf(perSeed)
	if n < 2 {
		return fmt.Sprintf("%.2f", mean)
	}
	return fmt.Sprintf("%.2f ±%.2f", mean, half)
}

// DataPlane quantifies the premise of §1: SR-IOV passthrough's data-plane
// advantage over the software (virtio/ipvtap-style) path. It starts one
// FastIOV secure container per packet size, then streams packets through
// both receive paths into the same guest, reporting throughput and latency.
func (x *Exec) DataPlane(packets int, sizes []int64) (*Report, error) {
	if packets <= 0 {
		packets = 50_000
	}
	if len(sizes) == 0 {
		sizes = []int64{64, 1500, 9000}
	}
	specs := make([]dpSpec, len(sizes))
	for i, size := range sizes {
		specs[i] = dpSpec{Packets: packets, Size: size}
	}
	rs, err := runAll[*dpOutcome](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("path", "pkt size", "throughput Gbps", "lat p50", "lat p99")
	rep := &Report{ID: "bg-dataplane", Title: fmt.Sprintf("Data-plane receive path (%d packets per point)", packets), Table: t}
	for i, size := range sizes {
		perSeed := rs[i]
		passGbps := make([]float64, len(perSeed))
		virtGbps := make([]float64, len(perSeed))
		for j, o := range perSeed {
			passGbps[j] = o.Pass.Throughput
			virtGbps[j] = o.Virt.Throughput
		}
		t.AddRow("sriov-passthrough", size, gbpsString(passGbps),
			perSeed.metric(func(o *dpOutcome) time.Duration { return o.Pass.LatP50 }),
			perSeed.metric(func(o *dpOutcome) time.Duration { return o.Pass.LatP99 }))
		t.AddRow("software-virtio", size, gbpsString(virtGbps),
			perSeed.metric(func(o *dpOutcome) time.Duration { return o.Virt.LatP50 }),
			perSeed.metric(func(o *dpOutcome) time.Duration { return o.Virt.LatP99 }))
	}
	rep.Notes = append(rep.Notes,
		"passthrough avoids the host-stack hop and vhost copy: the §1 rationale for building the CNI on SR-IOV at all")
	seedNote(rep, x, "throughput and latency points")
	return rep, nil
}
