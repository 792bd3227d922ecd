package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The table below is
// the single source of names and units; BENCHMARK.json lists the same
// names and a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator sees, emitted by every
// untraced run on every workload.
var endToEnd = []metricDef{
	{"refs_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
}

// layers are the simulator's modules under internal/ that the profile
// fold charges host time to.
var layers = []string{
	"trace", "cpu", "cache", "tlb", "pagetable", "mtl", "phys", "dram",
	"osmodel", "core", "system", "harness", "dist",
}

// counts are the simulated-event totals of one pass over a workload's job
// list, summed from RunResult and its Extra counters.
var counts = []string{
	"refs", "instrs", "cycles", "tlb_misses", "walks", "walk_accesses",
	"mtl_translations", "mtl_region_allocs", "zero_lines", "os_faults",
	"dram_accesses",
}

// nsPer are layer host time per simulated event of that layer.
var nsPer = []string{"ref", "cache_ref", "tlb_ref", "walk", "mtl_translation", "dram_access"}

// driveNames are the single-layer drives (see drive.go), in report order.
var driveNames = []string{
	"trace_next", "cache_access", "cache_fill", "tlb_lookup", "tlb_insert",
	"pt_walk", "nested_walk", "mtl_translate", "buddy_alloc", "buddy_free",
	"dram_access",
}

// fleetLayer are the fleet-only figures; the simulation workloads report
// them as 0. The first three are the fleet's own user-facing figures,
// which untraced runs also print.
var fleetLayer = []metricDef{
	{"warm_jobs_per_s", "1/s"},
	{"shard_rtt_ms.p50", "ms"},
	{"shard_rtt_ms.tail", "ms"},
	{"dist.shards", "count"},
	{"dist.non200", "count"},
	{"dist.req_kb", "KB"},
	{"dist.resp_kb", "KB"},
	{"dist.handler_ms.p50", "ms"},
	{"dist.wire_ms.p50", "ms"},
	{"harness.cache_put_us", "us"},
	{"harness.cache_get_us", "us"},
	{"harness.cache_hits", "count"},
	{"harness.cache_misses", "count"},
}

// perLayer returns every metric of a traced run, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{"host_s." + l, "s"})
	}
	out = append(out, metricDef{"host_s.gc", "s"}, metricDef{"host_s.other", "s"})
	for _, c := range counts {
		out = append(out, metricDef{"count." + c, "count"})
	}
	for _, n := range nsPer {
		out = append(out, metricDef{"ns_per." + n, "ns"})
	}
	out = append(out, metricDef{"alloc_b_per_ref", "B"}, metricDef{"allocs_per_ref", "count"})
	for _, d := range driveNames {
		out = append(out, metricDef{"drive." + d + "_ns", "ns"}, metricDef{"drive." + d + "_allocs", "count"})
	}
	out = append(out, fleetLayer...)
	out = append(out, metricDef{"trace_overhead_frac", "frac"}, metricDef{"host.calib_ms", "ms"})
	return out
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit renders the named metrics from vals: one human-readable line each,
// prefixed by prefix, and the entries of res.Metrics keyed by key(name).
// A name missing from vals is reported as 0, which for a per-layer metric
// means the workload does not exercise that layer.
func emit(w io.Writer, prefix string, defs []metricDef, vals map[string]float64, res *result, key func(string) string) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%s%-28s %16.6g %s\n", prefix, d.name, v, d.unit)
		res.Metrics[key(d.name)] = metricValue{Value: v, Unit: d.unit}
	}
}

// writeResult prints the result object as one JSON line.
func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the percentiles a tail is chosen from, highest first, in
// tenths of a percent so the samples-beyond count is exact.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest ladder percentile of xs that has at least ten
// samples beyond it, with that percentile; ok is false when even the
// median has fewer than ten samples beyond it.
func tail(xs []float64) (value, pct float64, ok bool) {
	for _, p := range tailLadder {
		if len(xs)*(1000-p) >= 10*1000 {
			return percentile(xs, float64(p)/10), float64(p) / 10, true
		}
	}
	return 0, 0, false
}
