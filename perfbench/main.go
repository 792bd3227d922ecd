// Command perfbench is the simulator's benchmark. It measures, from
// outside the program, what a user regenerating the paper's figures or
// running sweeps sees: simulated references per host second, machine
// set-up time, live heap and job throughput, over four workloads chosen
// so that different layers dominate each. Host seconds are process CPU
// time, scaled by a calibration kernel run between jobs to a fixed
// reference speed (see calibRef): a shared host's load moves them far
// less than it moves the wall clock.
//
//	conv-walk    Native and Virtual page walks on TLB-hostile apps
//	vbi-fig6     VBI-1/2/Full over every Figure 6 app
//	quad-share   Table 2 bundles wl3 and wl6 on four cores, Native and VBI-Full
//	fleet-sweep  64 small jobs through a loopback dist fleet and result cache
//
// Usage:
//
//	perfbench --workload <name|all> --seed N --seconds S --trace 0|1
//	perfbench --pin digests.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// splits the time between untraced and CPU-profiled passes and reports
// per-layer metrics: the profile folded by package, simulated-event
// counts, allocation rates, and each layer's exported calls driven on
// their own. Every job's output is checked against the SHA-256 digests
// pinned in digests.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.py, which keeps every build and output
// file inside the checkout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per workload")
		traceN  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outdir  = flag.String("outdir", ".bench_build/out", "directory for profiles, spans and scratch caches")
		goBin   = flag.String("go", "go", "go command used to fold the CPU profile")
		pinTo   = flag.String("pin", "", "re-pin output digests for the current harness version into this file and exit")
	)
	flag.Parse()
	if *pinTo != "" {
		if err := pin(*pinTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	var ws []workload
	if *name == "all" {
		ws = allWorkloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	store, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceN == 1,
		outdir:  *outdir,
		goBin:   *goBin,
		store:   store,
		host:    fingerprint(),
		out:     os.Stdout,
	}
	res, err := runAll(ws, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAll measures each workload and assembles the result. A single
// workload's metrics keep their bare names; with several, each is
// prefixed by its workload ("conv-walk/refs_per_s").
func runAll(ws []workload, o runOpts) (result, error) {
	h := o.host
	fmt.Fprintf(o.out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s harness=%s calib_ms=%.3f\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Harness, h.CalibMS)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		oc, err := measure(w, o)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted += oc.attempted
		res.Failed += oc.failed
		if oc.failed > 0 {
			res.Correct = false
		}
		if oc.selfCheck != nil {
			fmt.Fprintf(o.out, "%s: self-check failed: %v\n", w.name, oc.selfCheck)
			res.Correct = false
		}
		key := func(n string) string { return n }
		if len(ws) > 1 {
			key = func(n string) string { return w.name + "/" + n }
		}
		prefix := w.name + "  "
		failFrac := 0.0
		if oc.attempted > 0 {
			failFrac = float64(oc.failed) / float64(oc.attempted)
		}
		fmt.Fprintf(o.out, "%s%-28s %16.6g frac (%d of %d jobs failed or wrong)\n", prefix, "fail_frac", failFrac, oc.failed, oc.attempted)
		if o.traced {
			emit(o.out, prefix, perLayer(), oc.layer, &res, key)
			continue
		}
		emit(o.out, prefix, endToEnd, oc.e2e, &res, key)
		if w.fleet != nil {
			// The fleet's own figures, shown beside the end-to-end
			// metrics; the traced run reports them as per-layer metrics.
			for _, m := range fleetLayer[:3] {
				fmt.Fprintf(o.out, "%s%-28s %16.6g %s\n", prefix, m.name, oc.layer[m.name], m.unit)
			}
		}
		for _, n := range oc.notes {
			fmt.Fprintf(o.out, "%s%s\n", prefix, n)
		}
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no job attempted")
	}
	return res, nil
}

func measure(w workload, o runOpts) (outcome, error) {
	if w.fleet != nil {
		return measureFleet(w, o)
	}
	return measureSim(w, o)
}
