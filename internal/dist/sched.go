package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vbi/internal/harness"
	"vbi/internal/obs"
)

// The scheduler's fixed policy. A member failing defaultRetries
// consecutive requests is dropped; a shard refused maxShardAttempts
// times across the whole fleet fails its batch, because by then it has
// outlived worker churn and the cause is the work itself (e.g. a job
// whose simulation errors deterministically).
const (
	defaultShardSize    = 4
	defaultRetries      = 2
	maxShardAttempts    = 8
	defaultPollInterval = 250 * time.Millisecond
)

// task is one dispatchable shard: a contiguous slice of job indices
// within one batch. Tasks requeue whole on worker failure and carry
// their attempt count, so a shard no worker can serve eventually fails
// its batch instead of bouncing around the fleet forever.
type task struct {
	batch    string
	indices  []int
	attempts int
}

// fairQueue is the multi-batch shard queue. Batches are held separately
// and pop rotates one shard per batch per turn (round-robin), so a huge
// batch cannot starve a small one: with k active batches, every batch
// receives ~1/k of the fleet regardless of backlog sizes. With a single
// batch this is plain work-pulling. Requeued shards go to the front of
// their batch so retries are not penalized.
type fairQueue struct {
	mu      sync.Mutex
	order   []string // rotation order: batches in admission order
	cursor  int      // next batch to serve
	pending map[string][]*task
	// tombstones marks dropped (cancelled/failed) batches so their
	// in-flight shards cannot be resurrected by a later requeue.
	tombstones map[string]bool
}

func newFairQueue() *fairQueue {
	return &fairQueue{pending: map[string][]*task{}}
}

// add admits a batch's shards (appending when the batch already has
// pending work).
func (q *fairQueue) add(batch string, tasks []*task) {
	if len(tasks) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[batch]; !ok {
		q.order = append(q.order, batch)
	}
	q.pending[batch] = append(q.pending[batch], tasks...)
}

// pop removes and returns up to max shards, visiting active batches
// round-robin: one shard from each batch with pending work, wrapping
// until max is reached or the queue is empty. The rotation cursor
// persists across calls, so consecutive pulls by different workers
// continue the rotation instead of restarting it (which would bias
// toward the first batch).
func (q *fairQueue) pop(max int) []*task {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*task
	for len(out) < max && len(q.order) > 0 {
		if q.cursor >= len(q.order) {
			q.cursor = 0
		}
		id := q.order[q.cursor]
		shards := q.pending[id]
		if len(shards) == 0 {
			// Batch drained: drop it from the rotation without advancing
			// the cursor (the next batch slides into this slot).
			delete(q.pending, id)
			q.order = append(q.order[:q.cursor], q.order[q.cursor+1:]...)
			continue
		}
		out = append(out, shards[0])
		q.pending[id] = shards[1:]
		q.cursor++
	}
	return out
}

// requeue returns failed shards to the front of their batches' queues.
// Batches dropped meanwhile (cancelled/failed) discard their shards.
func (q *fairQueue) requeue(tasks []*task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range tasks {
		shards, ok := q.pending[t.batch]
		if !ok {
			if !q.tombstones[t.batch] {
				q.order = append(q.order, t.batch)
				q.pending[t.batch] = []*task{t}
			}
			continue
		}
		q.pending[t.batch] = append([]*task{t}, shards...)
	}
}

// drop removes a batch from the queue entirely (cancel/failure) and
// remembers it so in-flight shards of the batch are not resurrected by a
// later requeue.
func (q *fairQueue) drop(batch string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.pending, batch)
	for i, id := range q.order {
		if id == batch {
			q.order = append(q.order[:i], q.order[i+1:]...)
			if q.cursor > i {
				q.cursor--
			}
			break
		}
	}
	if q.tombstones == nil {
		q.tombstones = map[string]bool{}
	}
	q.tombstones[batch] = true
}

// depth returns one batch's pending shard count.
func (q *fairQueue) depth(batch string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending[batch])
}

// Batch is one client's job set on a Scheduler. The scheduler never
// holds results: each answered request's share of the batch goes
// straight to Deliver, so the client merges positionally and keeps its
// own completion state.
type Batch struct {
	// ID names the batch in the queue; it must be unique per Scheduler.
	ID string
	// Jobs is the client's full job list; shards carry indices into it.
	Jobs []harness.Job
	// Deliver receives one answered request's share of the batch: the
	// job indices, their positional results, and the member that ran
	// them. It may run on several serve goroutines at once.
	Deliver func(worker string, indices []int, results []JobResult)
	// Fail, when non-nil, is called once if a shard of the batch is
	// refused maxShardAttempts times. The batch has already been
	// dropped from the queue.
	Fail func(err error)
}

// batchState is the scheduler's book-keeping for one admitted batch.
type batchState struct {
	*Batch
	remaining int // submitted jobs not yet delivered
	inflight  int // jobs currently dispatched
}

// Scheduler dispatches queued batches across a fleet: one membership
// loop keeps one serve loop per live Registry member, and each serve
// loop pulls up to its member's advertised width of shards — fairly
// across batches — sends them as one /run request, and delivers the
// results to their batches. It is the only shard scheduler: a
// Coordinator runs one per Run with a single batch, and the sweep
// daemon runs one for its lifetime with one batch per sweep.
//
// Failure policy, the same for every client: a failed request requeues
// its shards; a member failing 2 consecutive requests (a Coordinator's
// Retries) is dropped and, if dynamic, quarantined; a 412 from /run (a
// worker binary swapped under the fleet) drops the member at once; a
// shard refused maxShardAttempts times fails its batch. An empty fleet is a wait
// state, never an error: deciding that a fleet that ran dry is fatal is
// the client's call, because only it knows whether joins can still
// come.
//
// Set the exported fields before the first call; unset ones take their
// defaults then, and all are read-only afterwards.
type Scheduler struct {
	// Fleet supplies the members to serve.
	Fleet *Registry
	// Client, when non-nil, overrides the HTTP client.
	Client *http.Client
	// AuthToken, when non-empty, is sent (bearer) on every /run request.
	AuthToken string
	// ShardSize is the number of jobs per shard, the dispatch and
	// requeue granularity (<=0 = 4).
	ShardSize int
	// Timeout bounds one /run request (<=0 = 10m).
	Timeout time.Duration
	// Logger, when non-nil, receives structured shard-lifecycle records.
	Logger *slog.Logger
	// Logf, when non-nil, receives human progress lines (drops, retries).
	Logf func(format string, args ...any)

	// Set only by a Coordinator, from its own fields; zero takes the
	// defaults. trace is the root trace ID (zero: one is minted): every
	// request gets a numbered child ("<root>/<seq>") sent to the worker
	// in the obs.TraceHeader header and attached to the records here.
	retries      int
	pollInterval time.Duration
	trace        string

	once  sync.Once
	queue *fairQueue
	wake  chan struct{} // nudged on submit so idle loops pull immediately
	seq   atomic.Int64

	mu          sync.Mutex // guards everything below
	batches     map[string]*batchState
	outstanding int // undelivered jobs across live batches
	lastErr     error
	dispatched  map[string]int64
	completed   map[string]int64
	failed      map[string]int64
	seconds     map[string]*obs.Histogram
}

// init fills in the defaults of unset fields and makes the queue and
// the book-keeping maps, once, before any other use.
func (s *Scheduler) init() {
	s.once.Do(func() {
		if s.Client == nil {
			s.Client = http.DefaultClient
		}
		if s.ShardSize <= 0 {
			s.ShardSize = defaultShardSize
		}
		if s.Timeout <= 0 {
			s.Timeout = 10 * time.Minute
		}
		if s.retries <= 0 {
			s.retries = defaultRetries
		}
		if s.pollInterval <= 0 {
			s.pollInterval = defaultPollInterval
		}
		if s.trace == "" {
			s.trace = obs.NewTraceID()
		}
		if s.Logger == nil {
			s.Logger = obs.Discard
		}
		if s.Logf == nil {
			s.Logf = func(string, ...any) {}
		}
		s.queue = newFairQueue()
		s.wake = make(chan struct{}, 1)
		s.batches = map[string]*batchState{}
		s.dispatched = map[string]int64{}
		s.completed = map[string]int64{}
		s.failed = map[string]int64{}
		s.seconds = map[string]*obs.Histogram{}
	})
}

// Submit admits a batch: the given job indices (into b.Jobs) are cut
// into ShardSize shards and queued behind the batches already admitted.
// It returns the shard count; no indices admit nothing.
func (s *Scheduler) Submit(b *Batch, indices []int) int {
	s.init()
	if len(indices) == 0 {
		return 0
	}
	var tasks []*task
	for lo := 0; lo < len(indices); lo += s.ShardSize {
		tasks = append(tasks, &task{batch: b.ID, indices: indices[lo:min(lo+s.ShardSize, len(indices))]})
	}
	s.mu.Lock()
	s.batches[b.ID] = &batchState{Batch: b, remaining: len(indices)}
	s.outstanding += len(indices)
	s.mu.Unlock()
	s.queue.add(b.ID, tasks)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return len(tasks)
}

// Drop removes a batch (cancelled, or failed by its client): its queued
// shards are discarded, and results of its in-flight shards are not
// delivered.
func (s *Scheduler) Drop(id string) {
	s.init()
	s.forget(id)
	s.queue.drop(id)
}

// forget removes a batch's book-keeping and returns it (nil if the
// batch was already gone).
func (s *Scheduler) forget(id string) *batchState {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.batches[id]
	if b != nil {
		delete(s.batches, id)
		s.outstanding -= b.remaining
	}
	return b
}

// Depth returns a batch's queued shard count.
func (s *Scheduler) Depth(id string) int {
	s.init()
	return s.queue.depth(id)
}

// InFlight returns a batch's dispatched, unanswered job count.
func (s *Scheduler) InFlight(id string) int {
	s.init()
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.batches[id]; b != nil {
		return b.inflight
	}
	return 0
}

// ShardStats is a snapshot of the scheduler's per-member shard
// accounting, keyed by member ID. A member appears in a map only once
// that map's count is non-zero; Seconds holds each member's request
// round-trip latency (dispatch to answered response).
type ShardStats struct {
	Dispatched map[string]int64
	Completed  map[string]int64
	Failed     map[string]int64
	Seconds    map[string]obs.HistogramSnapshot
}

// Stats snapshots the per-member shard accounting.
func (s *Scheduler) Stats() ShardStats {
	s.init()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		Dispatched: copyCounts(s.dispatched),
		Completed:  copyCounts(s.completed),
		Failed:     copyCounts(s.failed),
		Seconds:    make(map[string]obs.HistogramSnapshot, len(s.seconds)),
	}
	//vbi:allow maporder each entry is snapshotted into its own key; no order is observed
	for id, h := range s.seconds {
		st.Seconds[id] = h.Snapshot()
	}
	return st
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// lastDrop returns the error that last dropped a member, nil if none.
func (s *Scheduler) lastDrop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Run polls fleet membership and keeps one serve loop per live member
// until ctx ends; it returns once every serve loop has exited. A joined
// member gets a serve loop at the next poll, and an evicted or
// quarantined member has its loop cancelled (its in-flight shards
// requeue through the normal failure path).
func (s *Scheduler) Run(ctx context.Context) {
	s.init()
	type loop struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	active := map[string]*loop{}
	ticker := time.NewTicker(s.pollInterval)
	defer ticker.Stop()
	for {
		// Reap exited loops so a rejoined member can be re-served.
		//vbi:allow maporder per-member reap; each entry is tested and deleted independently
		for id, l := range active {
			select {
			case <-l.done:
				delete(active, id)
			default:
			}
		}
		live := s.Fleet.Live()
		alive := map[string]bool{}
		for _, m := range live {
			alive[m.ID] = true
		}
		// A dead worker's loop must not sit on the queue.
		//vbi:allow maporder per-member cancel; entries are independent and cancel is idempotent
		for id, l := range active {
			if !alive[id] {
				l.cancel()
			}
		}
		for _, m := range live {
			if _, ok := active[m.ID]; ok {
				continue
			}
			mctx, mcancel := context.WithCancel(ctx)
			l := &loop{cancel: mcancel, done: make(chan struct{})}
			active[m.ID] = l
			go func(m Member) {
				defer close(l.done)
				defer mcancel()
				s.serve(mctx, m)
			}(m)
		}
		select {
		case <-ctx.Done():
			//vbi:allow maporder cancel is idempotent per loop; order immaterial
			for _, l := range active {
				l.cancel()
			}
			//vbi:allow maporder joins every loop; completion set, not order, is what matters
			for _, l := range active {
				<-l.done
			}
			return
		case <-ticker.C:
		}
	}
}

// serve is one member's dispatch loop: pull up to weight shards (fairly
// across batches), send them as one request, deliver or requeue. It
// exits when the member's context is cancelled (eviction, or the
// scheduler stopping) or when the member is dropped.
func (s *Scheduler) serve(ctx context.Context, m Member) {
	consecutive := 0
	for ctx.Err() == nil {
		// Re-read the weight each round: a member that re-registered with a
		// different pool width (restarted on different hardware) pulls at
		// its new width immediately.
		tasks := s.queue.pop(s.Fleet.WeightOf(m.ID, m.Weight))
		if len(tasks) == 0 {
			// Idle, or another member holds the rest in flight and may
			// requeue it.
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			case <-time.After(25 * time.Millisecond):
			}
			continue
		}
		jobs, tasks := s.collect(m.ID, tasks)
		if len(jobs) == 0 {
			continue // every popped shard's batch was dropped meanwhile
		}
		trace := obs.ChildID(s.trace, s.seq.Add(1))
		log := s.Logger.With("trace", trace, "worker", m.ID)
		log.Info("shard dispatch", "jobs", len(jobs), "shards", len(tasks))
		start := time.Now()
		resp, fatal, err := ExecuteShard(ctx, s.Client, m, s.AuthToken, s.Timeout, jobs, trace)
		s.release(tasks)
		if fatal != nil {
			// A stale worker binary can never serve this process: drop it
			// and keep the shards for the rest of the fleet.
			s.count(s.failed, m.ID)
			s.queue.requeue(tasks)
			s.Logf("dropping worker %s permanently: %v", m.ID, fatal)
			log.Error("worker dropped", "err", fatal)
			s.drop(m.ID, fatal)
			return
		}
		if err != nil {
			// A cancelled member (evicted mid-request, or the scheduler
			// stopping) is not a worker failure: requeue and leave quietly.
			if ctx.Err() != nil {
				s.queue.requeue(tasks)
				return
			}
			// Count the attempt before requeueing: a requeued task belongs
			// to whichever loop pops it next.
			s.count(s.failed, m.ID)
			s.bumpAttempts(tasks, err)
			s.queue.requeue(tasks)
			consecutive++
			if consecutive >= s.retries {
				s.Logf("dropping worker %s after %d consecutive failures: %v", m.ID, consecutive, err)
				log.Warn("worker dropped", "failures", consecutive, "err", err)
				s.drop(m.ID, err)
				return
			}
			s.Logf("%s failed (attempt %d, %d jobs requeued): %v", m.ID, consecutive, len(jobs), err)
			log.Warn("shard requeued", "attempt", consecutive, "jobs", len(jobs), "err", err)
			if sleepCtx(ctx, time.Duration(consecutive)*100*time.Millisecond) != nil {
				return
			}
			continue
		}
		consecutive = 0
		elapsed := time.Since(start)
		s.answered(m.ID, len(tasks), elapsed)
		s.deliver(m.ID, tasks, resp.Results)
		s.mu.Lock()
		remaining := s.outstanding
		s.mu.Unlock()
		log.Info("shard complete", "jobs", len(jobs), "seconds", elapsed.Seconds(), "remaining", remaining)
	}
}

// collect resolves popped tasks to one request's job list, skipping
// tasks whose batch was dropped between pop and dispatch, and counts
// the survivors as dispatched and in flight.
func (s *Scheduler) collect(worker string, tasks []*task) ([]harness.Job, []*task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var jobs []harness.Job
	var live []*task
	for _, t := range tasks {
		b := s.batches[t.batch]
		if b == nil {
			continue
		}
		for _, idx := range t.indices {
			jobs = append(jobs, b.Jobs[idx])
		}
		b.inflight += len(t.indices)
		live = append(live, t)
	}
	if len(live) > 0 {
		s.dispatched[worker] += int64(len(live))
	}
	return jobs, live
}

// release ends the in-flight accounting of a request's tasks.
func (s *Scheduler) release(tasks []*task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tasks {
		if b := s.batches[t.batch]; b != nil {
			b.inflight -= len(t.indices)
		}
	}
}

// answered records a completed request against its member.
func (s *Scheduler) answered(worker string, shards int, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed[worker] += int64(shards)
	h, ok := s.seconds[worker]
	if !ok {
		h = obs.NewHistogram(obs.LatencyBuckets()...)
		s.seconds[worker] = h
	}
	h.Observe(elapsed.Seconds())
}

// count adds one to a per-member counter.
func (s *Scheduler) count(counter map[string]int64, worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counter[worker]++
}

// drop removes a member after a failure and records why, so a client
// whose fleet runs dry can report the last cause.
func (s *Scheduler) drop(worker string, cause error) {
	s.mu.Lock()
	s.lastErr = fmt.Errorf("last error from %s: %w", worker, cause)
	s.mu.Unlock()
	s.Fleet.Remove(worker)
}

// bumpAttempts counts one failed request against every task in it and
// fails the batch of any task refused maxShardAttempts times.
func (s *Scheduler) bumpAttempts(tasks []*task, cause error) {
	for _, t := range tasks {
		t.attempts++
		if t.attempts < maxShardAttempts {
			continue
		}
		b := s.forget(t.batch)
		s.queue.drop(t.batch)
		if b != nil && b.Fail != nil {
			b.Fail(fmt.Errorf("shard failed %d times, last: %w", t.attempts, cause))
		}
	}
}

// deliver hands an answered request's results to their batches, one
// call per batch, skipping batches dropped while the request ran.
func (s *Scheduler) deliver(worker string, tasks []*task, results []JobResult) {
	type share struct {
		b       *batchState
		indices []int
		results []JobResult
	}
	var shares []*share
	k := 0
	s.mu.Lock()
	for _, t := range tasks {
		n := len(t.indices)
		rs := results[k : k+n]
		k += n
		b := s.batches[t.batch]
		if b == nil {
			continue
		}
		b.remaining -= n
		s.outstanding -= n
		if b.remaining == 0 {
			delete(s.batches, t.batch)
		}
		var sh *share
		for _, x := range shares {
			if x.b == b {
				sh = x
			}
		}
		if sh == nil {
			sh = &share{b: b}
			shares = append(shares, sh)
		}
		sh.indices = append(sh.indices, t.indices...)
		sh.results = append(sh.results, rs...)
	}
	s.mu.Unlock()
	for _, sh := range shares {
		sh.b.Deliver(worker, sh.indices, sh.results)
	}
}
