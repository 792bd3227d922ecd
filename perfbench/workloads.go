package main

import (
	"fmt"
	"strings"

	"vbi/internal/harness"
	"vbi/internal/system"
	"vbi/internal/trace"
	"vbi/internal/workloads"
)

// inputSets is how many distinct input sets a workload has. --seed picks
// one (seed mod inputSets), so every input the benchmark can generate has
// its result digests pinned in digests.json.
const inputSets = 16

// workload is one benchmark input mix.
type workload struct {
	name string
	// refs is how many references each job's trace (each core's, on a
	// bundle) has; the digests in digests.json are pinned at these sizes.
	refs int
	// drives lists the single-layer drives reported under this workload:
	// those of the layers its jobs exercise.
	drives []string
	// sim builds the job list of a simulation workload; nil for the fleet.
	sim func(set, refs int) []simJob
	// fleet builds the job batch of the fleet workload.
	fleet func(set, refs int) []harness.Job
}

// The conventional-walk apps have sparse hot sets that defeat the TLB, so
// page walks, nested walks and demand faults dominate their host time.
var convApps = []string{"mcf", "graph500", "omnetpp-17", "astar"}

// fleetApps are cheap to set up, so a fleet job is small and the wire,
// the worker pool and the result cache carry real weight.
var fleetApps = []string{"namd", "bzip2", "sjeng", "omnetpp-17", "lbm-17", "hmmer", "img-dnn", "milc"}

var allWorkloads = []workload{
	{
		name:   "conv-walk",
		refs:   40_000,
		drives: []string{"trace_next", "cache_access", "cache_fill", "tlb_lookup", "tlb_insert", "pt_walk", "nested_walk", "dram_access"},
		sim: func(set, refs int) []simJob {
			return grid([]system.Kind{system.Native, system.Virtual}, convApps, set, refs)
		},
	},
	{
		name:   "vbi-fig6",
		refs:   20_000,
		drives: []string{"trace_next", "cache_access", "cache_fill", "tlb_lookup", "tlb_insert", "mtl_translate", "buddy_alloc", "buddy_free", "dram_access"},
		sim: func(set, refs int) []simJob {
			return grid([]system.Kind{system.VBI1, system.VBI2, system.VBIFull}, workloads.Fig6Apps, set, refs)
		},
	},
	{
		name:   "quad-share",
		refs:   30_000,
		drives: []string{"trace_next", "cache_access", "cache_fill", "tlb_lookup", "tlb_insert", "pt_walk", "mtl_translate", "buddy_alloc", "buddy_free", "dram_access"},
		sim: func(set, refs int) []simJob {
			var out []simJob
			for _, b := range []string{"wl3", "wl6"} {
				for _, k := range []system.Kind{system.Native, system.VBIFull} {
					out = append(out, simJob{Kind: k, Apps: workloads.Bundles[b], Seed: traceSeed(set, len(out)), Refs: refs})
				}
			}
			return out
		},
	},
	{
		name:  "fleet-sweep",
		refs:  4_000,
		fleet: fleetJobs,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(names, ", "))
}

// traceSeed is job i's trace seed in an input set.
func traceSeed(set, i int) uint64 { return uint64(set)*1000 + uint64(i) + 1 }

// grid is every kind × app as single-core jobs, kinds outermost.
func grid(kinds []system.Kind, apps []string, set, refs int) []simJob {
	var out []simJob
	for _, k := range kinds {
		for _, a := range apps {
			out = append(out, simJob{Kind: k, Apps: []string{a}, Seed: traceSeed(set, len(out)), Refs: refs})
		}
	}
	return out
}

// fleetJobs is Native and VBI-Full over fleetApps at four trace seeds: 64
// small jobs.
func fleetJobs(set, refs int) []harness.Job {
	var out []harness.Job
	for rep := 0; rep < 4; rep++ {
		for _, a := range fleetApps {
			for _, k := range []system.Kind{system.Native, system.VBIFull} {
				out = append(out, harness.Job{
					Spec:      system.MustSpec(k.String()),
					Workloads: []string{a},
					Refs:      refs,
					Seed:      traceSeed(set, len(out)),
				})
			}
		}
	}
	return out
}

// simJob is one machine the simulation workloads build and run: a
// single-core machine for one app, or a quad-core bundle.
type simJob struct {
	Kind system.Kind
	Apps []string
	Seed uint64
	Refs int
}

func (j simJob) String() string {
	return fmt.Sprintf("%s/%s#%d", j.Kind, strings.Join(j.Apps, ","), j.Seed)
}

// config is the job's machine configuration; warm-up takes Config's
// default of Refs/2.
func (j simJob) config() system.Config {
	return system.Config{Kind: j.Kind, Refs: j.Refs, Seed: j.Seed}
}

// simulatedRefs is every reference the job simulates: warm-up and
// measured, on every core.
func (j simJob) simulatedRefs() uint64 {
	return uint64(len(j.Apps)) * uint64(j.Refs+j.Refs/2)
}

func (j simJob) profiles() ([]trace.Profile, error) {
	var out []trace.Profile
	for _, a := range j.Apps {
		p, err := workloads.Get(a)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// machine is a built, not yet run, simulated machine.
type machine interface {
	run() ([]system.RunResult, error)
}

type single struct{ m *system.Machine }

func (s single) run() ([]system.RunResult, error) {
	r, err := s.m.Run()
	if err != nil {
		return nil, err
	}
	return []system.RunResult{r}, nil
}

type quad struct{ m *system.Multicore }

func (q quad) run() ([]system.RunResult, error) { return q.m.Run() }

// build constructs the job's machine: system.New for one app,
// system.NewMulticore for a bundle.
func (j simJob) build() (machine, error) {
	profs, err := j.profiles()
	if err != nil {
		return nil, err
	}
	if len(profs) == 1 {
		m, err := system.New(j.config(), profs[0])
		if err != nil {
			return nil, err
		}
		return single{m}, nil
	}
	m, err := system.NewMulticore(j.config(), profs)
	if err != nil {
		return nil, err
	}
	return quad{m}, nil
}

// jobRefs is every reference a harness job simulates (warm-up included).
func jobRefs(j harness.Job) uint64 {
	return uint64(len(j.Workloads)) * uint64(j.Refs+j.Refs/2)
}

// addCounts adds one job's simulated-event counters into c.
func addCounts(c map[string]float64, refs uint64, rs []system.RunResult) {
	c["refs"] += float64(refs)
	for _, r := range rs {
		e := r.Extra
		c["instrs"] += float64(r.Instrs)
		c["cycles"] += float64(r.Cycles)
		c["tlb_misses"] += float64(r.Phases().TLB)
		c["walks"] += float64(e["walks"])
		c["walk_accesses"] += float64(r.Phases().Walk)
		c["mtl_translations"] += float64(e["mtl.translations"])
		c["mtl_region_allocs"] += float64(e["mtl.region.allocs"])
		c["zero_lines"] += float64(e["mtl.zero.lines"])
		c["os_faults"] += float64(e["os.faults"])
		c["dram_accesses"] += float64(r.DRAMAccesses)
	}
}
