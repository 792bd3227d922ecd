package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval of the benchmark's own work around a call into the
// simulator: set-up, run, drive, pass or shard. Spans on lane 0 are the
// benchmark's main goroutine and nest strictly; a shard round trip runs
// concurrently with other shards, so it sits on the lane of the worker
// that served it (1 + worker index) with the pass that caused it as
// parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by finish
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a lane-0 span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// add records a finished span measured elsewhere (a shard round trip).
func (t *tracer) add(name string, parent, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Lane: lane, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// finish computes every span's self time — its duration minus the part of
// it that its same-lane children cover — and checks conservation: spans
// are closed, children lie inside their parent and do not overlap their
// siblings on one lane, and the lane-0 self times sum to the root's
// duration, which is the measured wall time.
func (t *tracer) finish(root int) ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d %q not closed", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, fmt.Errorf("span %d %q [%d,%d] outside parent %q [%d,%d]",
					i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if s.Lane == p.Lane {
				kids[s.Parent] = append(kids[s.Parent], i)
			}
		}
	}
	// Same-lane siblings and successive spans of one worker lane must not
	// overlap.
	byLane := map[int][]int{}
	for i, s := range spans {
		if s.Lane != 0 {
			byLane[s.Lane] = append(byLane[s.Lane], i)
		}
	}
	groups := append([][]int(nil), kids...)
	lanes := make([]int, 0, len(byLane))
	for l := range byLane {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	for _, l := range lanes {
		groups = append(groups, byLane[l])
	}
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return spans[g[a]].Start < spans[g[b]].Start })
		for k := 1; k < len(g); k++ {
			if spans[g[k]].Start < spans[g[k-1]].End {
				return nil, fmt.Errorf("spans %q and %q overlap on lane %d",
					spans[g[k-1]].Name, spans[g[k]].Name, spans[g[k]].Lane)
			}
		}
	}
	var sum int64
	for i := range spans {
		covered := int64(0)
		for _, k := range kids[i] {
			covered += spans[k].End - spans[k].Start
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
		if spans[i].Lane == 0 {
			sum += spans[i].Self
		}
	}
	if wall := spans[root].End - spans[root].Start; sum != wall {
		return nil, fmt.Errorf("lane-0 self times sum to %d ns, wall is %d ns", sum, wall)
	}
	return spans, nil
}

// selfByName sums lane-0 self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		if s.Lane == 0 {
			out[s.Name] += s.Self
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
