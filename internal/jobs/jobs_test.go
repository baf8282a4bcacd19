package jobs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"perspector/internal/metric"
	"perspector/internal/store"
)

// scoreReq builds a valid single-suite request; distinct seeds give
// distinct content keys.
func scoreReq(seed uint64) Request {
	return Request{
		Kind:   store.KindScore,
		Suites: []string{"nbench"},
		Config: store.RunConfig{Instructions: 1000, Samples: 10, Seed: seed},
	}
}

func fakeResult() store.ScoreSet {
	return store.New(store.KindScore, "all", "simulator",
		&store.RunConfig{Instructions: 1000, Samples: 10, Seed: 1},
		[]metric.Scores{{Suite: "nbench", Cluster: 1}})
}

// blockingRunner reports each start on started and then holds the job
// until release is closed (or the job's context ends).
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, h *Handle) (store.ScoreSet, error) {
		started <- h.Request().Suites[0]
		select {
		case <-release:
			return fakeResult(), nil
		case <-ctx.Done():
			return store.ScoreSet{}, ctx.Err()
		}
	}
}

func waitState(t *testing.T, q *Queue, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := q.Get(id); ok && s.State == want {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	s, _ := q.Get(id)
	t.Fatalf("job %s never reached %s (stuck at %s)", id, want, s.State)
	return Snapshot{}
}

func TestSubmitValidation(t *testing.T) {
	q := New(func(context.Context, *Handle) (store.ScoreSet, error) {
		return fakeResult(), nil
	}, Options{})
	defer q.Drain(context.Background())
	bad := []Request{
		{}, // no kind
		{Kind: "mystery", Suites: []string{"nbench"}},                   // unknown kind
		{Kind: store.KindScore},                                         // no suites, no trace
		{Kind: store.KindScore, Suites: []string{"nosuch"}},             // unknown suite
		{Kind: store.KindScore, Suites: []string{"nbench", "parsec"}},   // score takes one suite
		{Kind: store.KindCompare, Suites: []string{"nbench", "nbench"}}, // duplicate suite
		{Kind: store.KindScore, Suites: []string{"nbench"}, Group: "l2"},
		{Kind: store.KindScore, Trace: &TraceUpload{Format: "xml", Data: []byte("x")}},
		{Kind: store.KindScore, Trace: &TraceUpload{Format: "csv"}}, // empty upload
		{Kind: store.KindCompare, Trace: &TraceUpload{Format: "csv", Data: []byte("x")}},
		{Kind: store.KindScore, Suites: []string{"nbench"}, Trace: &TraceUpload{Format: "csv", Data: []byte("x")}},
	}
	for i, req := range bad {
		if _, _, err := q.Submit(req); err == nil {
			t.Errorf("bad request %d admitted: %+v", i, req)
		}
	}
}

// TestNormalizeRejectsUnrunnableConfig: admit implies run — a config
// the simulator would refuse (more samples than instructions) fails
// Normalize instead of becoming a job that can only fail.
func TestNormalizeRejectsUnrunnableConfig(t *testing.T) {
	req := Request{
		Kind:   store.KindScore,
		Suites: []string{"nbench"},
		Config: store.RunConfig{Instructions: 10, Samples: 100, Seed: 7},
	}
	err := req.Normalize()
	if err == nil || !strings.Contains(err.Error(), "more samples") {
		t.Fatalf("Normalize = %v, want a more-samples rejection", err)
	}
	edge := req
	edge.Config.Samples = 10
	if err := edge.Normalize(); err != nil {
		t.Fatalf("samples == instructions rejected: %v", err)
	}
}

// TestDedupInFlight pins the dedup contract: an identical request
// submitted while the first is queued or running folds into the same
// job; a different request gets its own.
func TestDedupInFlight(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(blockingRunner(started, release), Options{Workers: 1})

	first, dup, err := q.Submit(scoreReq(1))
	if err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	<-started // now running

	second, dup, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !dup || second.ID != first.ID {
		t.Fatalf("identical in-flight request not deduplicated: first=%s second=%s dup=%v",
			first.ID, second.ID, dup)
	}
	if second.Deduped != 1 {
		t.Fatalf("dedup counter = %d, want 1", second.Deduped)
	}

	other, dup, err := q.Submit(scoreReq(2)) // different seed → different key
	if err != nil || dup {
		t.Fatalf("distinct request treated as duplicate: dup=%v err=%v", dup, err)
	}
	if other.ID == first.ID || other.Key == first.Key {
		t.Fatalf("distinct request shares job/key: %+v vs %+v", other, first)
	}

	// While the first is still running and the other queued, a dup of the
	// *queued* job must also fold.
	otherDup, dup, err := q.Submit(scoreReq(2))
	if err != nil || !dup || otherDup.ID != other.ID {
		t.Fatalf("queued-job dedup failed: dup=%v err=%v", dup, err)
	}

	close(release)
	waitState(t, q, first.ID, StateDone)
	waitState(t, q, other.ID, StateDone)

	// Terminal jobs no longer dedup: a fresh submit runs anew (no store
	// configured, so no replay either).
	again, dup, err := q.Submit(scoreReq(1))
	if err != nil || dup {
		t.Fatalf("post-completion submit deduplicated: dup=%v err=%v", dup, err)
	}
	if again.ID == first.ID {
		t.Fatal("post-completion submit reused the finished job")
	}
	waitState(t, q, again.ID, StateDone)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFromStore: with a result store attached, resubmitting a
// completed request is served from the stored document without running.
func TestReplayFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs := 0
	q := New(func(ctx context.Context, h *Handle) (store.ScoreSet, error) {
		runs++
		return fakeResult(), nil
	}, Options{Workers: 1, Store: st})

	first, _, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first.ID, StateDone)

	second, dup, err := q.Submit(scoreReq(1))
	if err != nil || dup {
		t.Fatalf("dup=%v err=%v", dup, err)
	}
	snap := waitState(t, q, second.ID, StateDone)
	if !snap.Replayed {
		t.Fatalf("second run not replayed: %+v", snap)
	}
	if runs != 1 {
		t.Fatalf("runner ran %d times, want 1", runs)
	}
	set, ok, err := q.Result(second.ID)
	if err != nil || !ok {
		t.Fatalf("replayed result missing: ok=%v err=%v", ok, err)
	}
	if set.Suites[0].Suite != "nbench" {
		t.Fatalf("replayed result wrong: %+v", set)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedVsRunning exercises both cancellation paths: a queued
// job dies immediately and never starts; a running job is cancelled via
// its context and lands in canceled once the runner unwinds.
func TestCancelQueuedVsRunning(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(blockingRunner(started, release), Options{Workers: 1})
	defer close(release)

	running, _, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := q.Submit(scoreReq(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: terminal at once, runner never sees it.
	snap, err := q.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s, want canceled immediately", snap.State)
	}
	if snap.Error == nil || !snap.Error.Canceled {
		t.Fatalf("canceled queued job lacks cancellation error info: %+v", snap.Error)
	}

	// Cancel the running job: the context fires, the runner returns
	// ctx.Err(), and the state flips to canceled asynchronously.
	if _, err := q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	snap = waitState(t, q, running.ID, StateCanceled)
	if snap.Error == nil || !snap.Error.Canceled {
		t.Fatalf("canceled running job lacks cancellation error info: %+v", snap.Error)
	}

	// The runner must never have started the queued job.
	select {
	case name := <-started:
		t.Fatalf("canceled queued job started anyway (%s)", name)
	default:
	}

	// Cancelling a terminal job is a no-op, not an error.
	if snap, err = q.Cancel(running.ID); err != nil || snap.State != StateCanceled {
		t.Fatalf("cancel of terminal job: state=%s err=%v", snap.State, err)
	}
	if _, err := q.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainLetsRunningFinish: drain cancels queued work but a running
// job that completes within the deadline finishes as done.
func TestDrainLetsRunningFinish(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(blockingRunner(started, release), Options{Workers: 1})

	running, _, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := q.Submit(scoreReq(2))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()

	// The queued job must be cancelled promptly even while the running
	// one is still going.
	waitState(t, q, queued.ID, StateCanceled)
	// Admission is closed from the moment drain starts.
	if _, _, err := q.Submit(scoreReq(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	close(release) // let the running job finish in time
	if err := <-drained; err != nil {
		t.Fatalf("drain with a finishing job returned %v", err)
	}
	if s, _ := q.Get(running.ID); s.State != StateDone {
		t.Fatalf("running job after graceful drain: %s, want done", s.State)
	}
}

// TestDrainDeadlineCancelsSlowJob: a job that out-lives the drain
// deadline is cancelled and the drain still returns with no goroutines
// left behind.
func TestDrainDeadlineCancelsSlowJob(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{}) // never closed: the job is stuck
	q := New(blockingRunner(started, release), Options{Workers: 1})

	slow, _, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline returned %v, want DeadlineExceeded", err)
	}
	if s, _ := q.Get(slow.ID); s.State != StateCanceled {
		t.Fatalf("slow job after forced drain: %s, want canceled", s.State)
	}
}

func TestQueueFull(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(blockingRunner(started, release), Options{Workers: 1, MaxQueue: 1})
	defer func() {
		close(release)
		q.Drain(context.Background())
	}()

	if _, _, err := q.Submit(scoreReq(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := q.Submit(scoreReq(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(scoreReq(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-admission returned %v, want ErrQueueFull", err)
	}
	// Cancelling the queued job frees its admission slot.
	jobs := q.List()
	if _, err := q.Cancel(jobs[1].ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(scoreReq(3)); err != nil {
		t.Fatalf("submit after freeing the queue slot: %v", err)
	}
}

// TestDoneChannelAndCounts covers the long-poll surface and the metric
// counters.
func TestDoneChannelAndCounts(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	q := New(blockingRunner(started, release), Options{Workers: 1})

	snap, _, err := q.Submit(scoreReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := q.Submit(scoreReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := q.Depth(); d != 1 {
		t.Fatalf("Depth = %d, want 1", d)
	}
	counts := q.Counts()
	if counts[StateRunning] != 1 || counts[StateQueued] != 1 {
		t.Fatalf("Counts = %+v", counts)
	}

	done, err := q.Done(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("done channel closed while running")
	default:
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("done channel never closed")
	}
	waitState(t, q, queued.ID, StateDone)
	counts = q.Counts()
	if counts[StateDone] != 2 || counts[StateRunning] != 0 || counts[StateQueued] != 0 {
		t.Fatalf("terminal Counts = %+v", counts)
	}
	if _, err := q.Done("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Done on unknown job: %v", err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueNoGoroutineLeak mirrors internal/suites/cancel_test.go:
// repeated submit/cancel/drain cycles must not strand goroutines.
func TestQueueNoGoroutineLeak(t *testing.T) {
	cycle := func() {
		started := make(chan string, 16)
		release := make(chan struct{})
		q := New(blockingRunner(started, release), Options{Workers: 2})
		a, _, _ := q.Submit(scoreReq(1))
		b, _, _ := q.Submit(scoreReq(2))
		<-started
		<-started
		c, _, _ := q.Submit(scoreReq(3)) // stays queued
		q.Cancel(a.ID)                   // cancel-while-running
		q.Cancel(c.ID)                   // cancel-while-queued
		close(release)                   // b finishes
		waitState(t, q, b.ID, StateDone)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := q.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	cycle() // warm-up: lazily started runtime goroutines join the baseline
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
