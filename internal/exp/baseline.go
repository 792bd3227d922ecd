package exp

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"

	"vbi/internal/harness"
	"vbi/internal/system"
	"vbi/internal/workloads"
)

// Baseline is the tracked perf-trajectory document (BENCH_fig6.json): the
// simulator's own throughput over the Figure 6 matrix, per system. It is
// regenerated by `vbibench -bench-baseline` (full scale) or the env-gated
// TestBenchBaseline (CI scale) and committed so regressions in simulation
// speed show up as diffs, not anecdotes.
type Baseline struct {
	// Harness pins the schema the numbers were measured under; a baseline
	// from another version is not comparable (timing models moved).
	Harness string `json:"harness"`
	// Refs is the measured reference count per run.
	Refs int `json:"refs"`
	// Workloads is the Figure 6 application count (runs per system).
	Workloads int `json:"workloads"`
	// Workers is the pool width the batch ran under. Per-system seconds
	// are summed across runs, so they are comparable across Workers
	// values; TotalSeconds is not.
	Workers int `json:"workers"`
	// TotalSeconds is the end-to-end wall clock of the whole batch.
	TotalSeconds float64 `json:"total_seconds"`
	// Systems reports each system's cost, ordered slowest first.
	Systems []SystemBaseline `json:"systems"`
}

// SystemBaseline is one system's simulation cost over the Figure 6 apps.
type SystemBaseline struct {
	System string `json:"system"`
	// SimSeconds sums the per-run wall clock across the system's runs
	// (aggregate simulation time, independent of pool width).
	SimSeconds float64 `json:"sim_seconds"`
	// RefsPerSecond is the system's simulated-reference throughput:
	// Refs × Workloads / SimSeconds.
	RefsPerSecond float64 `json:"refs_per_second"`
}

// BenchBaseline measures the Figure 6 matrix (Native plus every series
// system, over all Figure 6 applications) on the local pool and returns
// the per-system timing document. The batch always simulates — no cache,
// no remote executor — because cache hits and wire results carry no
// timing.
func BenchBaseline(o Options) (*Baseline, error) {
	o = o.withDefaults()
	systems := []system.Kind{system.Native, system.Virtual, system.VIVT,
		system.VBI1, system.VBI2, system.VBIFull, system.PerfectTLB}
	names := make([]string, len(systems))
	for i, k := range systems {
		names[i] = k.String()
	}
	grid := harness.Grid{
		Systems:   names,
		Workloads: workloads.Fig6Apps,
		Seeds:     []uint64{o.Seed},
		Refs:      o.Refs,
	}
	jobs, err := grid.Jobs()
	if err != nil {
		return nil, err
	}
	runner := &harness.Runner{Workers: o.Workers, Progress: o.Progress}
	start := time.Now()
	results, err := runner.Run(o.ctx(), jobs)
	if err != nil {
		return nil, err
	}

	perSystem := map[string]float64{}
	for _, r := range results {
		perSystem[r.Job.Spec.Name] += r.Elapsed.Seconds()
	}
	width := o.Workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	b := &Baseline{
		Harness:      harness.Version,
		Refs:         o.Refs,
		Workloads:    len(workloads.Fig6Apps),
		Workers:      width,
		TotalSeconds: time.Since(start).Seconds(),
	}
	sysNames := make([]string, 0, len(perSystem))
	for name := range perSystem {
		sysNames = append(sysNames, name)
	}
	sort.Strings(sysNames)
	for _, name := range sysNames {
		secs := perSystem[name]
		rps := 0.0
		if secs > 0 {
			rps = float64(o.Refs) * float64(len(workloads.Fig6Apps)) / secs
		}
		b.Systems = append(b.Systems, SystemBaseline{
			System: name, SimSeconds: secs, RefsPerSecond: rps,
		})
	}
	sort.Slice(b.Systems, func(i, j int) bool {
		if b.Systems[i].SimSeconds != b.Systems[j].SimSeconds {
			return b.Systems[i].SimSeconds > b.Systems[j].SimSeconds
		}
		return b.Systems[i].System < b.Systems[j].System
	})
	return b, nil
}

// WriteJSON writes the baseline as an indented JSON document.
func (b *Baseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}
