package main

import (
	"fmt"
	"runtime"
	"time"

	"vbi/internal/addr"
	"vbi/internal/cache"
	"vbi/internal/dram"
	"vbi/internal/mtl"
	"vbi/internal/osmodel"
	"vbi/internal/pagetable"
	"vbi/internal/phys"
	"vbi/internal/system"
	"vbi/internal/tlb"
	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// A drive times one layer's exported call on its own, over the
// workload's generated reference stream, outside any simulated machine.
// Each drive reports ns and heap allocations per call, the median of
// driveReps timed loops.
const (
	driveRefs = 60_000
	driveReps = 3
	driveMem  = 16 << 30
)

// streamRef is one reference of the drive stream.
type streamRef struct {
	app, si int
	off     uint64
	write   bool
	// va places the reference in a flat per-app address space: app index
	// in the top bits, the structures laid out back to back, page-aligned.
	va uint64
}

// stream is a workload's generated reference stream: driveRefs in total,
// split evenly across the distinct apps of its jobs, each app's refs from
// the trace seed of its first job.
type stream struct {
	profs []trace.Profile
	seeds []uint64
	per   int // refs per app
	refs  []streamRef
}

func driveStream(jobs []simJob) stream {
	var s stream
	seen := map[string]bool{}
	for _, j := range jobs {
		for _, a := range j.Apps {
			if !seen[a] {
				seen[a] = true
				s.profs = append(s.profs, workloads.MustGet(a))
				s.seeds = append(s.seeds, j.Seed)
			}
		}
	}
	s.per = driveRefs / len(s.profs)
	for ai, p := range s.profs {
		bases := structBases(p)
		g := trace.NewGenerator(p, s.seeds[ai])
		for k := 0; k < s.per; k++ {
			r := g.Next()
			s.refs = append(s.refs, streamRef{app: ai, si: r.StructIdx, off: r.Offset, write: r.Op.Write,
				va: uint64(ai+1)<<40 | (bases[r.StructIdx] + r.Offset)})
		}
	}
	return s
}

func structBases(p trace.Profile) []uint64 {
	var out []uint64
	next := uint64(0)
	for _, s := range p.Structs {
		out = append(out, next)
		next += (s.Size + 4095) &^ 4095
	}
	return out
}

// prepared is a drive ready to time: body performs n calls.
type prepared struct {
	body func() error
	n    int
}

// driveSpec builds a drive's state. fresh drives mutate it irreversibly
// (fills, inserts, allocations), so they are rebuilt for every timed loop;
// the others run once untimed to warm their structures.
type driveSpec struct {
	fresh   bool
	prepare func(st stream) (prepared, error)
}

var drives = map[string]driveSpec{
	"trace_next": {fresh: true, prepare: func(st stream) (prepared, error) {
		gens := make([]*trace.Generator, len(st.profs))
		for i, p := range st.profs {
			gens[i] = trace.NewGenerator(p, st.seeds[i])
		}
		return prepared{n: len(st.refs), body: func() error {
			for _, g := range gens {
				for k := 0; k < st.per; k++ {
					refSink = g.Next()
				}
			}
			return nil
		}}, nil
	}},
	"cache_access": {prepare: func(st stream) (prepared, error) {
		refs := st.refs
		h := newHierarchy()
		for _, r := range refs {
			if h.Access(r.va, r.write).MissedLLC {
				h.Fill(r.va, r.write)
			}
		}
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				accessSink = h.Access(r.va, r.write)
			}
			return nil
		}}, nil
	}},
	"cache_fill": {fresh: true, prepare: func(st stream) (prepared, error) {
		refs := st.refs
		h := newHierarchy()
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				wbSink = h.Fill(r.va, r.write)
			}
			return nil
		}}, nil
	}},
	"tlb_lookup": {prepare: func(st stream) (prepared, error) {
		refs := st.refs
		t := newL2TLB()
		for _, r := range refs {
			t.Insert(r.va>>12, r.va>>12)
		}
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				u64Sink, boolSink = t.Lookup(r.va >> 12)
			}
			return nil
		}}, nil
	}},
	"tlb_insert": {fresh: true, prepare: func(st stream) (prepared, error) {
		refs := st.refs
		t := newL2TLB()
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				t.Insert(r.va>>12, r.va>>12)
			}
			return nil
		}}, nil
	}},
	"pt_walk": {prepare: func(st stream) (prepared, error) {
		profs, refs := st.profs, st.refs
		conv := osmodel.NewConvOS(pagetable.Page4K, driveMem)
		procs := make([]*osmodel.ConvProcess, len(profs))
		bases := make([][]uint64, len(profs))
		for i, p := range profs {
			proc, err := conv.NewProcess()
			if err != nil {
				return prepared{}, err
			}
			procs[i] = proc
			for _, s := range p.Structs {
				bases[i] = append(bases[i], proc.Mmap(s.Size))
			}
		}
		vas := make([]uint64, len(refs))
		for k, r := range refs {
			vas[k] = bases[r.app][r.si] + r.off
			if _, err := procs[r.app].Touch(vas[k]); err != nil {
				return prepared{}, err
			}
		}
		// Walk caches hold one table's node pointers: one per process.
		pwcs := make([]*tlb.PWC, len(profs))
		for i := range pwcs {
			pwcs[i] = tlb.NewPWC("PWC", system.PWCEntries)
		}
		return prepared{n: len(refs), body: func() error {
			for k, r := range refs {
				if res := procs[r.app].Table.Walk(vas[k], pwcs[r.app]); !res.OK {
					return fmt.Errorf("walk of mapped %#x faulted", vas[k])
				}
			}
			return nil
		}}, nil
	}},
	"nested_walk": {prepare: func(st stream) (prepared, error) {
		profs, refs := st.profs, st.refs
		host := osmodel.NewVMHost(pagetable.Page4K, driveMem)
		vms := make([]*osmodel.GuestVM, len(profs))
		bases := make([][]uint64, len(profs))
		for i, p := range profs {
			vm, err := host.NewGuest(p.Footprint() + p.Footprint()/4 + 256<<20)
			if err != nil {
				return prepared{}, err
			}
			vms[i] = vm
			for _, s := range p.Structs {
				bases[i] = append(bases[i], vm.Mmap(s.Size))
			}
		}
		vas := make([]uint64, len(refs))
		for k, r := range refs {
			vas[k] = bases[r.app][r.si] + r.off
			if _, err := vms[r.app].Touch(vas[k]); err != nil {
				return prepared{}, err
			}
		}
		hostPWCs := make([]*tlb.PWC, len(profs))
		guestPWCs := make([]*tlb.PWC, len(profs))
		for i := range hostPWCs {
			hostPWCs[i] = tlb.NewPWC("PWC", system.PWCEntries)
			guestPWCs[i] = tlb.NewPWC("gPWC", system.PWCEntries)
		}
		return prepared{n: len(refs), body: func() error {
			for k, r := range refs {
				if res := vms[r.app].Nested.Walk(vas[k], hostPWCs[r.app], guestPWCs[r.app]); !res.OK {
					return fmt.Errorf("nested walk of mapped %#x faulted", vas[k])
				}
			}
			return nil
		}}, nil
	}},
	"mtl_translate": {prepare: func(st stream) (prepared, error) {
		profs, refs := st.profs, st.refs
		m := mtl.NewSimple(mtl.Config{DelayedAlloc: true, EarlyReservation: true}, driveMem)
		vbs := make([][]addr.VBUID, len(profs))
		id := uint64(1)
		for i, p := range profs {
			for _, s := range p.Structs {
				class, ok := addr.ClassFor(s.Size)
				if !ok {
					return prepared{}, fmt.Errorf("%s/%s: no size class for %d bytes", p.Name, s.Name, s.Size)
				}
				u := addr.MakeVBUID(class, id)
				id++
				if err := m.Enable(u, workloads.PropsFor(s)); err != nil {
					return prepared{}, err
				}
				if err := m.Prefill(u, s.WarmBytes()); err != nil {
					return prepared{}, err
				}
				vbs[i] = append(vbs[i], u)
			}
		}
		as := make([]addr.Addr, len(refs))
		for k, r := range refs {
			as[k] = addr.Make(vbs[r.app][r.si], r.off)
		}
		return prepared{n: len(refs), body: func() error {
			for _, a := range as {
				if _, err := m.TranslateRead(a); err != nil {
					return err
				}
			}
			return nil
		}}, nil
	}},
	"buddy_alloc": {fresh: true, prepare: func(st stream) (prepared, error) {
		refs := st.refs
		b := phys.NewBuddy(driveMem)
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				if _, ok := b.Alloc(0, buddyOrder(r)); !ok {
					return fmt.Errorf("buddy exhausted")
				}
			}
			return nil
		}}, nil
	}},
	"buddy_free": {fresh: true, prepare: func(st stream) (prepared, error) {
		refs := st.refs
		b := phys.NewBuddy(driveMem)
		blocks := make([]phys.Addr, len(refs))
		for k, r := range refs {
			a, ok := b.Alloc(0, buddyOrder(r))
			if !ok {
				return prepared{}, fmt.Errorf("buddy exhausted")
			}
			blocks[k] = a
		}
		return prepared{n: len(refs), body: func() error {
			for k, r := range refs {
				b.Free(blocks[k], buddyOrder(r))
			}
			return nil
		}}, nil
	}},
	"dram_access": {prepare: func(st stream) (prepared, error) {
		refs := st.refs
		mem := dram.NewUniform(driveMem)
		now := uint64(0)
		return prepared{n: len(refs), body: func() error {
			for _, r := range refs {
				now += 40
				u64Sink = mem.Access(cache.LineOf(r.va)%driveMem, now, r.write)
			}
			return nil
		}}, nil
	}},
}

// Sinks keep drive results live.
var (
	refSink    trace.Ref
	accessSink cache.AccessResult
	wbSink     []uint64
	u64Sink    uint64
	boolSink   bool
)

// buddyOrder derives a block order of 0–3 (4–32 KB) from a reference.
func buddyOrder(r streamRef) int { return int(r.off>>12) & 3 }

func newHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(
		cache.New("L1", system.L1Size, system.L1Ways),
		cache.New("L2", system.L2Size, system.L2Ways),
		cache.New("LLC", system.LLCSize, system.LLCWays),
		cache.DefaultLatencies)
}

func newL2TLB() *tlb.TLB {
	return tlb.New("L2TLB", system.L2TLBEntries/system.L2TLBWays, system.L2TLBWays)
}

// drive times the named drive over the jobs' stream.
func drive(name string, jobs []simJob) (nsPerOp, allocsPerOp float64, err error) {
	spec, ok := drives[name]
	if !ok {
		return 0, 0, fmt.Errorf("unknown drive %q", name)
	}
	st := driveStream(jobs)
	var p prepared
	if !spec.fresh {
		if p, err = spec.prepare(st); err != nil {
			return 0, 0, err
		}
		if err := p.body(); err != nil {
			return 0, 0, err
		}
	}
	var ns, allocs []float64
	for rep := 0; rep < driveReps; rep++ {
		if spec.fresh {
			if p, err = spec.prepare(st); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := p.body()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(p.n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(p.n))
	}
	return median(ns), median(allocs), nil
}
