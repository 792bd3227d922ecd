package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// small is w at 2000 references a job, which keeps the short-scale tests
// quick. No digests are pinned at that size, so runs of it pass a nil
// digestStore and check themselves by repetition.
func small(w workload) workload {
	w.refs = 2000
	return w
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricTableMatchesBenchmarkJSON keeps the emitted names and units
// and the workload list in step with BENCHMARK.json.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, emitted %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("per_layer %v, emitted %v", layer, perLayer())
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
}

// TestEveryMetricEmitted runs every workload at short scale, untraced and
// traced, and checks each named metric comes out with its unit and that
// no job fails.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var ws []workload
	for _, w := range allWorkloads {
		ws = append(ws, small(w))
	}
	for _, traced := range []bool{false, true} {
		o := runOpts{seed: 5, seconds: time.Millisecond, traced: traced, outdir: t.TempDir(),
			goBin: "go", host: hostInfo{CalibMS: 1}, out: io.Discard}
		res, err := runAll(ws, o)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
		defs := endToEnd
		if traced {
			defs = perLayer()
		}
		for _, w := range allWorkloads {
			for _, d := range defs {
				m, ok := res.Metrics[w.name+"/"+d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("traced=%v: %s/%s = %+v, %v; want unit %s", traced, w.name, d.name, m, ok, d.unit)
				}
			}
		}
		if traced {
			if res.Metrics["conv-walk/count.walks"].Value == 0 || res.Metrics["vbi-fig6/count.walks"].Value != 0 {
				t.Errorf("count.walks: conv-walk %v, vbi-fig6 %v", res.Metrics["conv-walk/count.walks"], res.Metrics["vbi-fig6/count.walks"])
			}
		} else if len(res.Metrics) != len(allWorkloads)*len(endToEnd) {
			t.Errorf("untraced run emitted %d metrics, want %d", len(res.Metrics), len(allWorkloads)*len(endToEnd))
		}
	}
}

// TestFoldCanned checks the fold rule on a canned `go tool pprof -traces`
// sample: runtime map, malloc and growslice frames go to their caller's
// layer, helper packages under internal/ to the layer calling them, GC
// workers to gc and the rest to other.
func TestFoldCanned(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"pagetable": 290 * ms, "cache": 20 * ms, "mtl": 10 * ms, "gc": 40 * ms,
		"dist": 20 * ms, "harness": 10 * ms, "other": 30 * ms,
	}
	for _, b := range foldBuckets() {
		if res.buckets[b] != want[b] {
			t.Errorf("bucket %s = %v, want %v", b, res.buckets[b], want[b])
		}
	}
	if res.samples != 9 || res.sampled != 420*ms || res.header != 420*ms {
		t.Errorf("samples=%d sampled=%v header=%v", res.samples, res.sampled, res.header)
	}
	if err := res.conserved(); err != nil {
		t.Error(err)
	}
	res.header = 900 * ms
	if res.conserved() == nil {
		t.Error("conserved() accepted a fold that misses samples")
	}
}

// TestSameSeedSameJobsAndDigests checks that a seed fixes the job list and
// the outputs, and that seeds in different input sets differ.
func TestSameSeedSameJobsAndDigests(t *testing.T) {
	for _, w := range allWorkloads {
		if w.sim != nil {
			if a, b := w.sim(3, w.refs), w.sim(3, w.refs); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: job list differs for one seed", w.name)
			}
			if reflect.DeepEqual(w.sim(3, w.refs), w.sim(4, w.refs)) {
				t.Errorf("%s: input sets 3 and 4 have the same jobs", w.name)
			}
		} else {
			a, _ := json.Marshal(w.fleet(3, w.refs))
			b, _ := json.Marshal(w.fleet(3, w.refs))
			c, _ := json.Marshal(w.fleet(4, w.refs))
			if string(a) != string(b) || string(a) == string(c) {
				t.Errorf("%s: job lists not fixed by the seed", w.name)
			}
		}
	}
	if testing.Short() {
		return
	}
	w, err := lookupWorkload("quad-share")
	if err != nil {
		t.Fatal(err)
	}
	a, err := referenceDigests(small(w), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := referenceDigests(small(w), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(a) != 4 {
		t.Errorf("digests differ across runs of one input set:\n%v\n%v", a, b)
	}
}

// TestPinnedDigestsCoverEveryInputSet checks digests.json holds one digest
// per job for every input set of every workload at the current version.
func TestPinnedDigestsCoverEveryInputSet(t *testing.T) {
	store, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for set := 0; set < inputSets; set++ {
			n := 0
			if w.sim != nil {
				n = len(w.sim(set, w.refs))
			} else {
				n = len(w.fleet(set, w.refs))
			}
			if got := len(store.pinned(w.name, set)); got != n {
				t.Errorf("%s set %d: %d pinned digests for %d jobs", w.name, set, got, n)
			}
		}
	}
}

func TestSpanConservation(t *testing.T) {
	tr := newTracer()
	root := tr.begin("measure", -1)
	p := tr.begin("pass", root)
	s := tr.begin("setup", p)
	tr.end(s)
	r := tr.begin("run", p)
	time.Sleep(time.Millisecond)
	tr.end(r)
	start := time.Now()
	tr.add("shard", p, 1, start, start.Add(time.Microsecond))
	tr.end(p)
	tr.end(root)
	spans, err := tr.finish(root)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, sp := range spans {
		if sp.Lane == 0 {
			sum += sp.Self
		}
	}
	if wall := spans[root].End - spans[root].Start; sum != wall {
		t.Errorf("self times %d, wall %d", sum, wall)
	}

	bad := newTracer()
	root = bad.begin("measure", -1)
	a := bad.begin("a", root)
	b := bad.begin("b", root)
	bad.end(a)
	bad.end(b)
	bad.end(root)
	if _, err := bad.finish(root); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping siblings: err = %v", err)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p, ok := tail(xs); !ok || p != 90 || v < 90.0999 || v > 90.1001 {
		t.Errorf("tail of 1..100 = %v p%v %v, want 90.1 p90", v, p, ok)
	}
	if _, _, ok := tail(xs[:15]); ok {
		t.Error("tail of 15 samples should have none with ten beyond it")
	}
}

// TestPredictionsNameKnownMetrics checks predictions.json cites only
// layers, workloads and metrics the benchmark has.
func TestPredictionsNameKnownMetrics(t *testing.T) {
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Layers map[string]struct {
			Moves []struct {
				Metric    string
				Workloads []string
			}
			UnchangedOn []string `json:"unchanged_on"`
		}
		PerLayer map[string]string `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		known[d.name] = true
	}
	buckets := map[string]bool{}
	for _, l := range foldBuckets() {
		buckets[l] = true
	}
	for _, l := range sortedKeys(p.Layers) {
		pred := p.Layers[l]
		if !buckets[l] {
			t.Errorf("unknown layer %q", l)
		}
		for _, m := range pred.Moves {
			if !known[m.Metric] {
				t.Errorf("%s: unknown metric %q", l, m.Metric)
			}
			for _, w := range append(m.Workloads, pred.UnchangedOn...) {
				if _, err := lookupWorkload(w); err != nil {
					t.Errorf("%s: %v", l, err)
				}
			}
		}
	}
	for _, m := range sortedKeys(p.PerLayer) {
		if !known[m] {
			t.Errorf("per_layer prediction for unknown metric %q", m)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
