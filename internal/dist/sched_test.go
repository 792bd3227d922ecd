package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFairQueueRoundRobin is the starvation guarantee at the unit level:
// with a huge batch and a small one pending, pops alternate between them,
// so the small batch's last shard leaves the queue within 2×(its size)
// pops no matter how deep the huge backlog is.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue()
	mk := func(id string, n int) []*task {
		out := make([]*task, n)
		for i := range out {
			out[i] = &task{batch: id, indices: []int{i}}
		}
		return out
	}
	q.add("huge", mk("huge", 100))
	q.add("small", mk("small", 3))

	var seen []string
	smallLeft := 3
	pops := 0
	for smallLeft > 0 {
		ts := q.pop(1)
		if len(ts) != 1 {
			t.Fatalf("pop drained early after %d pops", pops)
		}
		pops++
		seen = append(seen, ts[0].batch)
		if ts[0].batch == "small" {
			smallLeft--
		}
	}
	if pops > 6 {
		t.Errorf("small batch needed %d pops to drain behind a 100-shard backlog (%v), want <= 6", pops, seen)
	}

	// Multi-shard pops keep rotating too: a pop of 4 must serve both.
	q2 := newFairQueue()
	q2.add("huge", mk("huge", 100))
	q2.add("small", mk("small", 2))
	got := map[string]int{}
	for _, ts := range q2.pop(4) {
		got[ts.batch]++
	}
	if got["small"] != 2 || got["huge"] != 2 {
		t.Errorf("pop(4) = %v, want 2 shards from each batch", got)
	}
}

// TestFairQueueRequeueAndDrop pins the retry and cancel edges: requeued
// shards land at the front of their batch, and a dropped batch's
// in-flight shards cannot be resurrected by a later requeue.
func TestFairQueueRequeueAndDrop(t *testing.T) {
	q := newFairQueue()
	a1 := &task{batch: "a", indices: []int{0}}
	a2 := &task{batch: "a", indices: []int{1}}
	q.add("a", []*task{a1, a2})

	got := q.pop(1)
	if len(got) != 1 || got[0] != a1 {
		t.Fatalf("pop = %v, want a1", got)
	}
	q.requeue(got)
	if next := q.pop(1); next[0] != a1 {
		t.Error("requeued shard did not return to the front of its batch")
	}

	q.drop("a")
	if d := q.depth("a"); d != 0 {
		t.Errorf("depth after drop = %d, want 0", d)
	}
	q.requeue([]*task{a2})
	if d := q.depth("a"); d != 0 {
		t.Errorf("dropped batch resurrected by requeue: depth = %d", d)
	}
	if got := q.pop(10); len(got) != 0 {
		t.Errorf("pop after drop returned %d shards", len(got))
	}
}

// TestPoisonShardFailsRun pins the attempt cap on the coordinator: a
// dynamic fleet whose only worker fails every /run keeps readmitting
// the worker as its quarantine lapses, so only the cap can end the
// run. It must fail with the cap's error long before the deadline.
func TestPoisonShardFailsRun(t *testing.T) {
	var runs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathHealthz {
			writeJSON(rw, http.StatusOK, Hello{Service: "vbiworker", Version: ProtocolVersion, Workers: 1})
			return
		}
		runs.Add(1)
		writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "synthetic failure"})
	}))
	t.Cleanup(srv.Close)

	reg := &Registry{TTL: 20 * time.Millisecond}
	reg.Handler() // accept joins: running dry is a wait, not a failure
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		for ctx.Err() == nil {
			reg.Add(srv.URL, 1, false, "poison")
			time.Sleep(5 * time.Millisecond)
		}
	}()

	_, err := chaosCoordinator(reg).Run(ctx, testJobs(t))
	if ctx.Err() != nil {
		t.Fatalf("run hit the deadline after %d /run requests (err = %v)", runs.Load(), err)
	}
	if err == nil || !strings.Contains(err.Error(), "shard failed 8 times") {
		t.Fatalf("err = %v, want the attempt cap's error", err)
	}
	// More requests than attempts is possible: a request cut off by a
	// missed heartbeat is an eviction, not a refusal.
	if n := runs.Load(); n < maxShardAttempts {
		t.Errorf("worker saw %d /run requests, want at least %d", n, maxShardAttempts)
	}
	cancel()
	<-beatDone
}
