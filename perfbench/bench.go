package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

var bgCtx = context.Background()

// runOpts configures one workload run.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	outdir  string
	goBin   string
	// store holds the pinned digests; with nil, a run checks itself by
	// repetition.
	store digestStore
	host  hostInfo
	out   io.Writer
}

// outcome is what one workload run measured.
type outcome struct {
	e2e               map[string]float64
	layer             map[string]float64
	attempted, failed int
	// notes are extra report lines.
	notes []string
	// selfCheck is the first failed self-check of the benchmark itself
	// (fold or span conservation), nil when all held.
	selfCheck error
}

// checker counts attempted and failed jobs against reference digests.
type checker struct {
	ref               []string
	attempted, failed int
}

// check records one job attempt; a job whose reference is unknown (its
// first run failed) can only fail by erroring.
func (c *checker) check(i int, d string, err error) {
	c.attempted++
	if err != nil || (c.ref[i] != "" && d != c.ref[i]) {
		c.failed++
	}
}

// setReference installs the pinned digests, or — when none are pinned for
// this harness.Version — the first pass's own digests, after checking
// that rerunning job 0 reproduces them. It returns a line for the report.
func (c *checker) setReference(pinned, first []string, rerun0 func() (string, error)) string {
	c.ref = make([]string, len(first))
	if pinned != nil {
		copy(c.ref, pinned)
		for i, d := range first {
			c.check(i, d, nil)
		}
		return "digests: pinned"
	}
	copy(c.ref, first)
	d, err := rerun0()
	c.check(0, d, err)
	return "digests: unpinned for this harness version; checked that a repeated job reproduces its result"
}

// simPass is one pass over a simulation workload's job list. setup and
// run are process CPU time (see cpuTime); runWall is Run's wall time;
// calib times the calibration kernel run before every job.
type simPass struct {
	refs           uint64
	setup, run     time.Duration
	runWall        time.Duration
	calib          calibSum
	heapMax        uint64
	allocB, allocN uint64
	digests        []string
	counts         map[string]float64
}

type passMode struct {
	heap     bool // measure the live heap after every Run
	memstats bool // count allocations over every Run
}

// runSimPass builds and runs every job once, in order.
func runSimPass(jobs []simJob, mode passMode, chk *checker, tr *tracer, parent int) simPass {
	p := simPass{digests: make([]string, len(jobs)), counts: map[string]float64{}}
	pid := tr.begin("pass", parent)
	for i, j := range jobs {
		p.calib.run()
		sid := tr.begin("setup", pid)
		c0 := cpuTime()
		m, err := j.build()
		p.setup += cpuTime() - c0
		tr.end(sid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j, err)
			if chk != nil {
				chk.check(i, "", err)
			}
			continue
		}
		var before runtime.MemStats
		if mode.memstats {
			runtime.ReadMemStats(&before)
		}
		rid := tr.begin("run", pid)
		c1, t1 := cpuTime(), time.Now()
		rs, err := m.run()
		p.run += cpuTime() - c1
		p.runWall += time.Since(t1)
		tr.end(rid)
		if mode.memstats {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			p.allocB += after.TotalAlloc - before.TotalAlloc
			p.allocN += after.Mallocs - before.Mallocs
		}
		if mode.heap {
			hid := tr.begin("heap", pid)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > p.heapMax {
				p.heapMax = ms.HeapAlloc
			}
			runtime.KeepAlive(m)
			tr.end(hid)
		}
		cid := tr.begin("check", pid)
		if err == nil {
			p.digests[i], err = digest(rs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j, err)
		}
		if chk != nil {
			chk.check(i, p.digests[i], err)
		}
		p.refs += j.simulatedRefs()
		addCounts(p.counts, j.simulatedRefs(), rs)
		tr.end(cid)
	}
	tr.end(pid)
	return p
}

// passesFor runs passes until d has elapsed, at least one.
func passesFor[P any](d time.Duration, pass func() P) []P {
	var out []P
	deadline := time.Now().Add(d)
	for len(out) == 0 || time.Now().Before(deadline) {
		out = append(out, pass())
	}
	return out
}

// measureSim runs a simulation workload: one warm-up pass that also fixes
// the reference digests and measures the live heap, then timed passes
// for o.seconds. A traced run splits the time between untraced and
// profiled passes, then drives each layer on its own.
func measureSim(w workload, o runOpts) (outcome, error) {
	set := int(o.seed % inputSets)
	jobs := w.sim(set, w.refs)
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	root := tr.begin("measure", -1)

	chk := &checker{}
	p0 := runSimPass(jobs, passMode{heap: true}, nil, tr, root)
	note := chk.setReference(o.store.pinned(w.name, set), p0.digests, func() (string, error) {
		id := tr.begin("rerun", root)
		defer tr.end(id)
		m, err := jobs[0].build()
		if err != nil {
			return "", err
		}
		rs, err := m.run()
		if err != nil {
			return "", err
		}
		return digest(rs)
	})
	fmt.Fprintf(o.out, "%s: %d jobs, input set %d; %s\n", w.name, len(jobs), set, note)

	oc := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	oc.e2e["live_heap_mb"] = float64(p0.heapMax) / (1 << 20)

	timed := o.seconds
	if o.traced {
		timed /= 2
	}
	plain := passesFor(timed, func() simPass { return runSimPass(jobs, passMode{}, chk, tr, root) })
	simE2E(oc.e2e, plain, len(jobs))
	oc.notes = append(oc.notes, spreadNote("refs_per_s", plain, func(p simPass) float64 { return float64(p.refs) / p.run.Seconds() * p.calib.slowdown() }),
		spreadNote("setup_s", plain, func(p simPass) float64 { return p.setup.Seconds() / p.calib.slowdown() }),
		spreadNote("host slowdown", plain, func(p simPass) float64 { return p.calib.slowdown() }),
		spreadNote("unscaled refs_per_s", plain, func(p simPass) float64 { return float64(p.refs) / p.run.Seconds() }),
		spreadNote("wall refs_per_s", plain, func(p simPass) float64 { return float64(p.refs) / p.runWall.Seconds() }))

	if o.traced {
		prof := filepath.Join(o.outdir, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, o.seed))
		stop, err := startProfile(prof)
		if err != nil {
			return oc, err
		}
		traced := passesFor(timed, func() simPass {
			return runSimPass(jobs, passMode{memstats: true}, chk, tr, root)
		})
		stop()
		tracedE2E := map[string]float64{}
		simE2E(tracedE2E, traced, len(jobs))
		oc.layer["trace_overhead_frac"] = 1 - tracedE2E["refs_per_s"]/oc.e2e["refs_per_s"]
		var refs, allocB, allocN uint64
		for _, p := range traced {
			refs += p.refs
			allocB += p.allocB
			allocN += p.allocN
		}
		oc.layer["alloc_b_per_ref"] = float64(allocB) / float64(refs)
		oc.layer["allocs_per_ref"] = float64(allocN) / float64(refs)
		for _, c := range counts {
			oc.layer["count."+c] = p0.counts[c]
		}
		for _, d := range w.drives {
			did := tr.begin("drive", root)
			ns, allocs, err := drive(d, jobs)
			tr.end(did)
			if err != nil {
				return oc, fmt.Errorf("drive %s: %w", d, err)
			}
			oc.layer["drive."+d+"_ns"] = ns
			oc.layer["drive."+d+"_allocs"] = allocs
		}
		tr.end(root)
		oc.selfCheck = finishTrace(w.name, o, tr, root, prof, len(traced), oc.layer)
	}
	oc.attempted, oc.failed = chk.attempted, chk.failed
	return oc, nil
}

// spreadNote describes how a per-pass figure varied within the run.
func spreadNote[P any](name string, passes []P, f func(P) float64) string {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, f(p))
	}
	return fmt.Sprintf("%s over %d passes: min %.6g, median %.6g, max %.6g",
		name, len(xs), percentile(xs, 0), median(xs), percentile(xs, 100))
}

// simE2E fills the end-to-end metrics of a set of passes: medians over
// passes of each pass's figure, in process CPU seconds scaled to the
// reference speed (see calibRef). jobs_per_s counts only the
// simulator's set-up and Run time, not the benchmark's own checking
// between jobs.
func simE2E(e2e map[string]float64, passes []simPass, jobs int) {
	var rate, setup, jps []float64
	for _, p := range passes {
		k := p.calib.slowdown()
		rate = append(rate, float64(p.refs)/p.run.Seconds()*k)
		setup = append(setup, p.setup.Seconds()/k)
		jps = append(jps, float64(jobs)/(p.setup+p.run).Seconds()*k)
	}
	e2e["refs_per_s"] = median(rate)
	e2e["setup_s"] = median(setup)
	e2e["jobs_per_s"] = median(jps)
}

// startProfile starts the CPU profiler writing to path.
func startProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close profile: %v\n", err)
		}
	}, nil
}

// finishTrace folds the profile into per-pass layer host seconds, derives
// the per-event figures, checks fold and span conservation, and writes
// the spans. It returns the first failed conservation check.
func finishTrace(name string, o runOpts, tr *tracer, root int, prof string, passes int, layer map[string]float64) error {
	f, err := foldProfile(o.goBin, prof)
	if err != nil {
		return err
	}
	var total float64
	for _, b := range foldBuckets() {
		s := f.buckets[b].Seconds() / float64(passes)
		layer["host_s."+b] = s
		total += s
	}
	perEvent := func(seconds float64, count string) float64 {
		if n := layer["count."+count]; n > 0 {
			return seconds * 1e9 / n
		}
		return 0
	}
	layer["ns_per.ref"] = perEvent(total, "refs")
	layer["ns_per.cache_ref"] = perEvent(layer["host_s.cache"], "refs")
	layer["ns_per.tlb_ref"] = perEvent(layer["host_s.tlb"], "refs")
	layer["ns_per.walk"] = perEvent(layer["host_s.pagetable"], "walks")
	layer["ns_per.mtl_translation"] = perEvent(layer["host_s.mtl"], "mtl_translations")
	layer["ns_per.dram_access"] = perEvent(layer["host_s.dram"], "dram_accesses")
	layer["host.calib_ms"] = o.host.CalibMS

	fmt.Fprintf(o.out, "fold: %d samples, %.3f s sampled over %d profiled passes\n", f.samples, f.sampled.Seconds(), passes)
	for _, b := range foldBuckets() {
		if s := f.buckets[b]; s > 0 {
			fmt.Fprintf(o.out, "  %-10s %6.1f%%\n", b, 100*s.Seconds()/f.sampled.Seconds())
		}
	}
	foldErr := f.conserved()
	spans, spanErr := tr.finish(root)
	if spanErr == nil {
		path := filepath.Join(o.outdir, fmt.Sprintf("spans-%s-seed%d.json", name, o.seed))
		spanErr = writeSpans(path, spans)
		wall := time.Duration(spans[root].End - spans[root].Start)
		fmt.Fprintf(o.out, "spans: %d written to %s; self times sum to wall %v\n", len(spans), path, wall)
		self := selfByName(spans)
		for _, n := range []string{"measure", "pass", "setup", "run", "check", "heap", "rerun", "drive", "fleet-setup", "cold", "warm", "teardown", "local"} {
			if v, ok := self[n]; ok {
				fmt.Fprintf(o.out, "  self %-12s %8.3f s\n", n, time.Duration(v).Seconds())
			}
		}
	}
	if foldErr != nil {
		return foldErr
	}
	return spanErr
}
