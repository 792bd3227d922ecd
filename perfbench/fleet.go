package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vbi/internal/dist"
	"vbi/internal/harness"
	"vbi/internal/obs"
)

// The fleet workload runs its batch through a dist.Coordinator to two
// loopback dist.Workers in this process, each over a 1-slot
// harness.Runner, with a harness.Cache on the coordinator. A cold pass
// simulates every job remotely and writes it to a fresh cache; warm
// passes then serve the whole batch from that cache without touching the
// wire.
const (
	fleetWorkers = 2
	// warmBudget bounds the warm passes after each cold pass. One warm
	// pass over 64 jobs takes milliseconds, so it is repeated to be timed.
	warmBudget = 300 * time.Millisecond
	minWarm    = 10
	// fleetCalibs is how many times each pass runs the calibration
	// kernel: half just before its cold pass, half just after.
	fleetCalibs = 16
)

// wireLog records what crossed the wire, from a wrapped client transport
// and a wrapped worker handler, joined on the coordinator's trace header.
type wireLog struct {
	mu       sync.Mutex
	tr       *tracer
	parent   int // the cold pass span shard spans hang off
	lanes    map[string]int
	rtt      []time.Duration
	traces   []string
	handler  map[string]time.Duration
	reqB     int64
	respB    int64
	shards   int
	non200   int
	handlers int
}

func (l *wireLog) roundTrip(trace, host string, start, end time.Time, status int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shards++
	if status != http.StatusOK {
		l.non200++
	}
	l.rtt = append(l.rtt, end.Sub(start))
	l.traces = append(l.traces, trace)
	l.tr.add("shard", l.parent, l.lanes[host], start, end)
}

func (l *wireLog) handled(trace string, d time.Duration, reqB, respB int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler[trace] = d
	l.handlers++
	l.reqB += reqB
	l.respB += respB
}

// timedTransport times each /run round trip, from sending the request to
// closing the response body (the coordinator closes it after decoding).
type timedTransport struct {
	base http.RoundTripper
	log  *wireLog
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != dist.PathRun {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	trace, host, status := req.Header.Get(obs.TraceHeader), req.URL.Host, resp.StatusCode
	resp.Body = &closeHook{ReadCloser: resp.Body, onClose: func() {
		t.log.roundTrip(trace, host, start, time.Now(), status)
	}}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once    sync.Once
	onClose func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.onClose)
	return err
}

// timedHandler times the worker's handling of each /run request and
// counts the bytes it read and wrote.
type timedHandler struct {
	next http.Handler
	log  *wireLog
}

func (h timedHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Path != dist.PathRun {
		h.next.ServeHTTP(rw, req)
		return
	}
	start := time.Now()
	body := &countingReader{r: req.Body}
	req.Body = body
	cw := &countingWriter{ResponseWriter: rw}
	h.next.ServeHTTP(cw, req)
	h.log.handled(req.Header.Get(obs.TraceHeader), time.Since(start), body.n, cw.n)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// fleet is two running loopback workers.
type fleet struct {
	servers []*http.Server
	served  []chan error
	bases   []string
}

// startFleet starts the workers and completes the coordinator's version
// handshake with each: the fleet's set-up.
func startFleet(ctx context.Context, log *wireLog, client *http.Client) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		w := &dist.Worker{Runner: &harness.Runner{Workers: 1}}
		srv := &http.Server{Handler: timedHandler{next: w.Handler(), log: log}}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.served = append(f.served, done)
		f.bases = append(f.bases, ln.Addr().String())
		log.mu.Lock()
		log.lanes[ln.Addr().String()] = i + 1
		log.mu.Unlock()
	}
	for _, b := range f.bases {
		if _, err := dist.Probe(ctx, client, "http://"+b, ""); err != nil {
			f.stop()
			return nil, fmt.Errorf("handshake %s: %w", b, err)
		}
	}
	return f, nil
}

// stop shuts every worker down and waits for its server to return.
func (f *fleet) stop() error {
	var errs []error
	for i, srv := range f.servers {
		ctx, cancel := context.WithTimeout(bgCtx, 10*time.Second)
		errs = append(errs, srv.Shutdown(ctx))
		cancel()
		if err := <-f.served[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// fleetPass is one fleet set-up, cold pass and run of warm passes.
// coldCPU is the process CPU time of the cold pass (see cpuTime); the
// other durations are wall time; calib times the calibration kernel.
type fleetPass struct {
	// ok is false when a batch failed; the pass's timings are then left
	// out of the medians.
	ok          bool
	setup, cold time.Duration
	coldCPU     time.Duration
	calib       calibSum
	warm        []time.Duration
	refs        uint64
	hits        int64
	misses      int64
	counts      map[string]float64
}

// measureFleet runs the fleet workload: a local reference run, a local
// pass that measures each job's live heap, one warm-up pass through the
// fleet, then passes for o.seconds.
func measureFleet(w workload, o runOpts) (outcome, error) {
	set := int(o.seed % inputSets)
	jobs := w.fleet(set, w.refs)
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	root := tr.begin("measure", -1)
	oc := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Reference: the same batch on a local 1-slot runner. Every fleet
	// result, cold or warm, must be byte-identical to it.
	lid := tr.begin("local", root)
	local, err := (&harness.Runner{Workers: 1}).Run(bgCtx, jobs)
	tr.end(lid)
	if err != nil {
		return oc, fmt.Errorf("local reference run: %w", err)
	}
	first := make([]string, len(jobs))
	for i, r := range local {
		if first[i], err = digest(r.Results); err != nil {
			return oc, err
		}
	}
	chk := &checker{}
	note := chk.setReference(o.store.pinned(w.name, set), first, func() (string, error) {
		id := tr.begin("rerun", root)
		defer tr.end(id)
		res, err := (&harness.Runner{Workers: 1}).Run(bgCtx, jobs[:1])
		if err != nil {
			return "", err
		}
		return digest(res[0].Results)
	})
	fmt.Fprintf(o.out, "%s: %d jobs on %d loopback workers, input set %d; %s\n", w.name, len(jobs), fleetWorkers, set, note)

	// live_heap_mb is the largest live heap across the batch's jobs, each
	// machine built and run here as on the simulation workloads. The
	// workers' machines are out of the benchmark's reach, and how many of
	// them are alive at one moment depends on the host's timing.
	var sims []simJob
	for _, j := range jobs {
		c, err := j.Spec.Config()
		if err != nil {
			return oc, err
		}
		sims = append(sims, simJob{Kind: c.Kind, Apps: j.Workloads, Seed: j.Seed, Refs: j.Refs})
	}
	heap := runSimPass(sims, passMode{heap: true}, nil, tr, root)
	oc.e2e["live_heap_mb"] = float64(heap.heapMax) / (1 << 20)

	log := &wireLog{tr: tr, lanes: map[string]int{}, handler: map[string]time.Duration{}}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: timedTransport{base: transport, log: log}}
	pass := func(n int) (fleetPass, error) {
		return runFleetPass(jobs, n, chk, log, client, o.outdir, tr, root)
	}
	n := 0
	p0, err := pass(n)
	if err != nil {
		return oc, err
	}
	oc.layer["harness.cache_hits"] = float64(p0.hits)
	oc.layer["harness.cache_misses"] = float64(p0.misses)
	for _, c := range counts {
		oc.layer["count."+c] = p0.counts[c]
	}
	// The wire figures cover the timed passes only.
	log.mu.Lock()
	log.rtt, log.traces, log.shards, log.non200, log.handlers, log.reqB, log.respB = nil, nil, 0, 0, 0, 0, 0
	log.mu.Unlock()

	timed := o.seconds
	if o.traced {
		timed /= 2
	}
	var passErr error
	run := func() fleetPass {
		n++
		p, err := pass(n)
		if err != nil && passErr == nil {
			passErr = err
		}
		return p
	}
	plain := passesFor(timed, run)
	if passErr != nil {
		return oc, passErr
	}
	fleetE2E(oc.e2e, plain, len(jobs))
	oc.notes = append(oc.notes, spreadNote("jobs_per_s", plain, func(p fleetPass) float64 { return float64(len(jobs)) / p.coldCPU.Seconds() * p.calib.slowdown() }),
		spreadNote("setup_s", plain, func(p fleetPass) float64 { return p.setup.Seconds() / p.calib.slowdown() }),
		spreadNote("host slowdown", plain, func(p fleetPass) float64 { return p.calib.slowdown() }),
		spreadNote("unscaled jobs_per_s", plain, func(p fleetPass) float64 { return float64(len(jobs)) / p.coldCPU.Seconds() }),
		spreadNote("wall jobs_per_s", plain, func(p fleetPass) float64 { return float64(len(jobs)) / p.cold.Seconds() }))
	oc.notes = append(oc.notes, fleetWire(oc.layer, log, len(plain)))

	if o.traced {
		prof := filepath.Join(o.outdir, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, o.seed))
		stop, err := startProfile(prof)
		if err != nil {
			return oc, err
		}
		traced := passesFor(timed, run)
		stop()
		if passErr != nil {
			return oc, passErr
		}
		tracedE2E := map[string]float64{}
		fleetE2E(tracedE2E, traced, len(jobs))
		oc.layer["trace_overhead_frac"] = 1 - tracedE2E["refs_per_s"]/oc.e2e["refs_per_s"]
		did := tr.begin("drive", root)
		put, get, err := driveCache(local, filepath.Join(o.outdir, "drive-cache"))
		tr.end(did)
		if err != nil {
			return oc, err
		}
		oc.layer["harness.cache_put_us"] = put
		oc.layer["harness.cache_get_us"] = get
		tr.end(root)
		oc.selfCheck = finishTrace(w.name, o, tr, root, prof, len(traced), oc.layer)
	}
	oc.layer["warm_jobs_per_s"] = oc.e2e["warm_jobs_per_s"]
	oc.attempted, oc.failed = chk.attempted, chk.failed
	return oc, nil
}

// runFleetPass starts the fleet, runs one cold and several warm passes
// through a coordinator with a fresh cache, and stops the fleet.
func runFleetPass(jobs []harness.Job, n int, chk *checker, log *wireLog,
	client *http.Client, outdir string, tr *tracer, root int) (fleetPass, error) {
	p := fleetPass{counts: map[string]float64{}}
	pid := tr.begin("pass", root)
	defer tr.end(pid)

	sid := tr.begin("fleet-setup", pid)
	t0 := time.Now()
	f, err := startFleet(bgCtx, log, client)
	p.setup = time.Since(t0)
	tr.end(sid)
	if err != nil {
		return p, err
	}
	dir := filepath.Join(outdir, fmt.Sprintf("fleet-cache-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		f.stop()
		return p, err
	}
	cache := &harness.Cache{Dir: dir}
	coord := &dist.Coordinator{Endpoints: f.bases, Cache: cache, Client: client}

	for i := 0; i < fleetCalibs/2; i++ {
		p.calib.run()
	}
	cid := tr.begin("cold", pid)
	log.mu.Lock()
	log.parent = cid
	log.mu.Unlock()
	c1, t1 := cpuTime(), time.Now()
	res, err := coord.Run(bgCtx, jobs)
	p.coldCPU = cpuTime() - c1
	p.cold = time.Since(t1)
	tr.end(cid)
	for i := 0; i < fleetCalibs/2; i++ {
		p.calib.run()
	}
	p.ok = err == nil
	if err != nil {
		failBatch(len(jobs), chk, err)
	} else {
		p.verify(res, chk, false)
		for i, r := range res {
			refs := jobRefs(jobs[i])
			addCounts(p.counts, refs, r.Results)
			p.refs += refs
		}
		_, p.misses = cache.Counters()
	}

	wid := tr.begin("warm", pid)
	for p.ok && (len(p.warm) < minWarm || sum(p.warm) < warmBudget) {
		t := time.Now()
		warm, err := coord.Run(bgCtx, jobs)
		if err != nil {
			failBatch(len(jobs), chk, err)
			p.ok = false
			break
		}
		p.warm = append(p.warm, time.Since(t))
		p.verify(warm, chk, true)
		if len(p.warm) == 1 {
			p.hits, _ = cache.Counters()
		}
	}
	tr.end(wid)

	did := tr.begin("teardown", pid)
	stopErr := f.stop()
	rmErr := os.RemoveAll(dir)
	tr.end(did)
	return p, errors.Join(stopErr, rmErr)
}

// failBatch counts every job of a batch that returned an error as failed.
func failBatch(n int, chk *checker, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: fleet batch: %v\n", err)
	for i := 0; i < n; i++ {
		chk.check(i, "", err)
	}
}

// verify checks a batch's results against the reference digests; a warm
// pass must also have served every job from the cache.
func (p *fleetPass) verify(res []harness.Result, chk *checker, warm bool) {
	for i, r := range res {
		d, err := digest(r.Results)
		if err == nil && warm && !r.Cached {
			err = fmt.Errorf("job %d not served from cache", i)
		}
		chk.check(i, d, err)
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// fleetE2E fills the fleet's timed end-to-end metrics: medians over
// passes, with host seconds
// scaled to the reference speed (see calibRef). refs_per_s and
// jobs_per_s divide by the cold pass's process CPU time, which covers the
// coordinator, the wire and the workers' system.New as well as Run: the
// fleet runs them all at once, so they cannot be split. On this workload
// the two differ only by the fixed refs per job.
func fleetE2E(e2e map[string]float64, passes []fleetPass, jobs int) {
	var rate, setup, jps, warm []float64
	for _, p := range passes {
		if !p.ok {
			continue
		}
		k := p.calib.slowdown()
		rate = append(rate, float64(p.refs)/p.coldCPU.Seconds()*k)
		setup = append(setup, p.setup.Seconds()/k)
		jps = append(jps, float64(jobs)/p.coldCPU.Seconds()*k)
		for _, w := range p.warm {
			warm = append(warm, float64(jobs)/w.Seconds())
		}
	}
	e2e["refs_per_s"] = median(rate)
	e2e["setup_s"] = median(setup)
	e2e["jobs_per_s"] = median(jps)
	e2e["warm_jobs_per_s"] = median(warm)
}

// fleetWire fills the wire figures of the timed passes and describes the
// round-trip tail.
func fleetWire(layer map[string]float64, log *wireLog, passes int) string {
	log.mu.Lock()
	defer log.mu.Unlock()
	var rtt, hand, wire []float64
	for i, d := range log.rtt {
		rtt = append(rtt, ms(d))
		if h, ok := log.handler[log.traces[i]]; ok {
			hand = append(hand, ms(h))
			wire = append(wire, ms(d-h))
		}
	}
	layer["shard_rtt_ms.p50"] = median(rtt)
	note := fmt.Sprintf("shard_rtt_ms.tail: fewer than ten of %d round trips beyond the median", len(rtt))
	if v, pct, ok := tail(rtt); ok {
		layer["shard_rtt_ms.tail"] = v
		note = fmt.Sprintf("shard_rtt_ms.tail is p%g of %d round trips", pct, len(rtt))
	}
	layer["dist.shards"] = float64(log.shards) / float64(passes)
	layer["dist.non200"] = float64(log.non200)
	if log.handlers > 0 {
		layer["dist.req_kb"] = float64(log.reqB) / 1024 / float64(log.handlers)
		layer["dist.resp_kb"] = float64(log.respB) / 1024 / float64(log.handlers)
	}
	layer["dist.handler_ms.p50"] = median(hand)
	layer["dist.wire_ms.p50"] = median(wire)
	return note
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// driveCache times harness.Cache Put and then Get of every result of the
// batch in a scratch directory, returning median microseconds per call.
func driveCache(res []harness.Result, dir string) (putUS, getUS float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	c := &harness.Cache{Dir: dir}
	var puts, gets []float64
	for _, r := range res {
		t := time.Now()
		if err := c.Put(r.Job, r.Results); err != nil {
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
	}
	for _, r := range res {
		t := time.Now()
		if _, ok := c.Get(r.Job); !ok {
			return 0, 0, fmt.Errorf("cache drive: %s missing after Put", r.Job.Describe())
		}
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(puts), median(gets), nil
}
