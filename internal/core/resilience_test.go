package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// failingSource delegates to a real cursor but cuts the stream short and
// reports err, exercising the simulator's Source.Err propagation path.
type failingSource struct {
	trace.Source
	after int
	n     int
	err   error
}

func (f *failingSource) Next() (trace.Request, bool) {
	if f.n >= f.after {
		return trace.Request{}, false
	}
	f.n++
	return f.Source.Next()
}

func (f *failingSource) Err() error { return f.err }

// panicSource panics on the first Next call.
type panicSource struct{ trace.Source }

func (p *panicSource) Next() (trace.Request, bool) { panic("poisoned cursor") }

func resilienceEnv(t *testing.T) (*Validator, ssdconf.Config, *trace.Trace) {
	t.Helper()
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 11})
	v := NewValidatorSources(space, map[string][]trace.SourceFactory{"Database": {tr.Factory()}})
	return v, space.FromDevice(ssd.Intel750()), tr
}

// TestErrorsNeverCached is the regression for the memoization contract:
// a failed measurement must not poison the cache. Every retry of a
// persistently failing key re-simulates, and once the failure clears the
// key measures and caches normally.
func TestErrorsNeverCached(t *testing.T) {
	v, ref, tr := resilienceEnv(t)
	permanent := errors.New("disk on fire")
	var calls atomic.Int32
	var healed atomic.Bool
	factory := func() trace.Source {
		calls.Add(1)
		if healed.Load() {
			return tr.Source()
		}
		return &failingSource{Source: tr.Source(), after: 200, err: permanent}
	}

	for i := 1; i <= 2; i++ {
		if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); !errors.Is(err, permanent) {
			t.Fatalf("call %d: err = %v, want the injected failure", i, err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("factory invoked %d times, want 2 (an error was served from cache)", got)
	}
	if snap := v.SnapshotCache(); len(snap) != 0 {
		t.Fatalf("failed measurement landed in the cache: %+v", snap)
	}

	healed.Store(true)
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); err != nil {
		t.Fatalf("healed measurement failed: %v", err)
	}
	if snap := v.SnapshotCache(); len(snap) != 1 {
		t.Fatalf("healed measurement not cached: %d entries", len(snap))
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("factory invoked %d times, want 3 (the success was not served from cache)", got)
	}
}

// TestTransientRetry: a source failing with an ErrTransient-wrapped
// error is retried within one MeasureTrace call and the eventual success
// is cached; the failed attempts never are.
func TestTransientRetry(t *testing.T) {
	v, ref, tr := resilienceEnv(t)
	v.MaxRetries = 3
	var calls atomic.Int32
	factory := func() trace.Source {
		if calls.Add(1) <= 2 {
			return &failingSource{Source: tr.Source(), after: 200,
				err: fmt.Errorf("spurious read: %w", ErrTransient)}
		}
		return tr.Source()
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); err != nil {
		t.Fatalf("retriable failure not retried to success: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("factory invoked %d times, want 3 (2 transient failures + 1 success)", got)
	}
	if v.Stats().SimRuns != 1 {
		t.Fatalf("SimRuns = %d, want 1 (only the successful attempt completes)", v.Stats().SimRuns)
	}

	// A non-transient error must fail on the first attempt despite the
	// retry budget (distinct trace name: the success above is cached).
	calls.Store(0)
	hard := errors.New("bad sector table")
	hardFactory := func() trace.Source {
		calls.Add(1)
		return &failingSource{Source: tr.Source(), after: 200, err: hard}
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#1", hardFactory); !errors.Is(err, hard) {
		t.Fatalf("err = %v, want the hard failure", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("hard failure attempted %d times, want 1 (deterministic errors fail fast)", got)
	}
}

// TestSimTimeout: a simulation over its wall-clock budget fails with
// context.DeadlineExceeded and is not cached.
func TestSimTimeout(t *testing.T) {
	v, ref, tr := resilienceEnv(t)
	v.SimTimeout = time.Nanosecond
	_, err := v.MeasureTrace(context.Background(), ref, "Database#0", tr.Factory())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if snap := v.SnapshotCache(); len(snap) != 0 {
		t.Fatalf("timed-out measurement landed in the cache: %+v", snap)
	}

	// Lifting the budget lets the same key measure normally.
	v.SimTimeout = 0
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
}

// TestPanicRecovered: a panic inside a simulation surfaces as a
// *PanicError carrying the panic value, instead of killing the worker.
func TestPanicRecovered(t *testing.T) {
	v, ref, tr := resilienceEnv(t)
	factory := func() trace.Source { return &panicSource{Source: tr.Source()} }
	_, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "poisoned cursor" {
		t.Fatalf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if snap := v.SnapshotCache(); len(snap) != 0 {
		t.Fatalf("panicked measurement landed in the cache: %+v", snap)
	}
}

// TestTuneCheckpointResumeEquivalence is the acceptance-criteria test:
// a tuning run killed mid-way and resumed from its checkpoint — in a
// fresh tuner and a fresh, empty validator, as after a process restart —
// must produce the bit-identical result of an uninterrupted run.
func TestTuneCheckpointResumeEquivalence(t *testing.T) {
	target := string(workload.Database)
	base := TunerOptions{Seed: 5, MaxIterations: 6, SGDSteps: 3}

	// Reference: uninterrupted, no checkpointing.
	space, v, g, ref := parallelTunerEnv(t, 4, nil)
	tuner, err := NewTuner(space, v, g, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tuner.Tune(context.Background(), target, []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel as soon as the second search iteration
	// completes; the checkpoint of that iteration is already on disk.
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	space2, v2, g2, ref2 := parallelTunerEnv(t, 4, nil)
	interrupted := base
	interrupted.Checkpoint = ckpt
	interrupted.OnIteration = func(iter int, _ float64) {
		if iter >= 1 {
			cancel()
		}
	}
	tuner2, err := NewTuner(space2, v2, g2, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner2.Tune(ctx, target, []ssdconf.Config{ref2}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}

	// Resume: fresh tuner, fresh validator (empty cache), same seed.
	space3, v3, g3, ref3 := parallelTunerEnv(t, 4, nil)
	resumed := base
	resumed.Checkpoint = ckpt
	resumed.Resume = true
	tuner3, err := NewTuner(space3, v3, g3, resumed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tuner3.Tune(context.Background(), target, []ssdconf.Config{ref3})
	if err != nil {
		t.Fatal(err)
	}

	if !ssdconf.Equal(want.Best, got.Best) {
		t.Fatalf("best configs differ:\n uninterrupted %s\n resumed       %s", want.Best.Key(), got.Best.Key())
	}
	if want.BestGrade != got.BestGrade {
		t.Fatalf("best grades differ: uninterrupted %v, resumed %v", want.BestGrade, got.BestGrade)
	}
	if want.Iterations != got.Iterations {
		t.Fatalf("iteration counts differ: uninterrupted %d, resumed %d", want.Iterations, got.Iterations)
	}
	if want.Converged != got.Converged {
		t.Fatalf("convergence differs: uninterrupted %v, resumed %v", want.Converged, got.Converged)
	}
	if len(want.Trajectory) != len(got.Trajectory) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(want.Trajectory), len(got.Trajectory))
	}
	for i := range want.Trajectory {
		if want.Trajectory[i] != got.Trajectory[i] {
			t.Fatalf("trajectories diverge at %d: %v vs %v", i, want.Trajectory[i], got.Trajectory[i])
		}
	}
	// The resumed run must have skipped the already-measured work: the
	// checkpoint's cache snapshot serves everything up to the interrupt,
	// so its fresh simulations stay below the uninterrupted run's count.
	if got.SimRuns >= want.SimRuns {
		t.Fatalf("resumed run re-simulated completed work: %d sims, uninterrupted ran %d", got.SimRuns, want.SimRuns)
	}
}

// TestResumeRejectsMismatchedRun: a checkpoint must refuse to seed a run
// whose target, seed or parameter space differs.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	target := string(workload.Database)
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt.json")
	opts := TunerOptions{Seed: 5, MaxIterations: 2, SGDSteps: 2, Checkpoint: ckpt}

	space, v, g, ref := parallelTunerEnv(t, 2, nil)
	tuner, err := NewTuner(space, v, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Tune(context.Background(), target, []ssdconf.Config{ref}); err != nil {
		t.Fatal(err)
	}

	try := func(mutate func(*TunerOptions, *ssdconf.Space)) error {
		space2, v2, g2, ref2 := parallelTunerEnv(t, 2, nil)
		o := opts
		o.Resume = true
		mutate(&o, space2)
		t2, err := NewTuner(space2, v2, g2, o)
		if err != nil {
			t.Fatal(err)
		}
		_, err = t2.Tune(context.Background(), target, []ssdconf.Config{ref2})
		return err
	}
	if err := try(func(o *TunerOptions, _ *ssdconf.Space) { o.Seed = 6 }); err == nil {
		t.Fatal("resume accepted a different seed")
	}
	if err := try(func(_ *TunerOptions, s *ssdconf.Space) {
		s.Faults = ssd.FaultProfile{Rate: 0.01, Seed: 3}
	}); err == nil {
		t.Fatal("resume accepted a different fault profile")
	}
	// Unchanged run parameters must resume cleanly (and immediately
	// return the finished run's state).
	if err := try(func(*TunerOptions, *ssdconf.Space) {}); err != nil {
		t.Fatalf("identical run failed to resume: %v", err)
	}
}

// TestFaultedRunReproducibleAcrossParallel: with fault injection enabled
// on the space, serial and 8-way-parallel validation must still fill the
// cache with bit-identical measurements — the fault stream is keyed by
// (profile seed, device), never by worker schedule.
func TestFaultedRunReproducibleAcrossParallel(t *testing.T) {
	run := func(parallel int) []CachedPerf {
		space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
		space.Faults = ssd.FaultProfile{Rate: 0.02, Seed: 9}
		ws := map[string]*trace.Trace{
			"Database": workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 13}),
			"KVStore":  workload.MustGenerate(workload.KVStore, workload.Options{Requests: 1500, Seed: 13}),
		}
		v := NewValidator(space, ws)
		v.Parallel = parallel
		ref := space.FromDevice(ssd.Intel750())
		cfgs := distinctConfigs(t, space, ref, 3)
		if _, err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
			t.Fatal(err)
		}
		return v.SnapshotCache()
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("cache sizes differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("faulted measurement differs at %s/%s:\n serial   %+v\n parallel %+v",
				serial[i].CfgKey, serial[i].Name, serial[i].Perf, parallel[i].Perf)
		}
	}
}

// TestWaiterOutlivesCancelledLeader: a singleflight waiter shares the
// leader's result, but not an error that only the leader's own
// cancelled context caused. A live waiter looks again and measures the
// key itself, counted once as what that resolves to. A SimTimeout
// deadline belongs to the key's measurement and is still shared.
func TestWaiterOutlivesCancelledLeader(t *testing.T) {
	for _, tc := range []struct {
		name       string
		timeout    time.Duration
		wantErr    error // the waiter's error
		wantCalls  int32 // factory invocations
		wantRuns   int64
		wantJoined int64 // CoalescedWaits
	}{
		{name: "leader-cancelled", wantCalls: 2, wantRuns: 1},
		{name: "sim-timeout", timeout: 20 * time.Millisecond,
			wantErr: context.DeadlineExceeded, wantCalls: 1, wantJoined: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, ref, tr := resilienceEnv(t)
			v.SimTimeout = tc.timeout
			started, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int32
			// The leader's factory call blocks inside its run, after any
			// SimTimeout deadline has started, until the test releases it.
			factory := func() trace.Source {
				if calls.Add(1) == 1 {
					close(started)
					<-release
				}
				return tr.Source()
			}
			measure := func(ctx context.Context) <-chan error {
				done := make(chan error, 1)
				go func() {
					_, err := v.MeasureTrace(ctx, ref, "Database#0", factory)
					done <- err
				}()
				return done
			}

			leaderCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leader := measure(leaderCtx)
			<-started
			waiter := measure(context.Background())
			time.Sleep(50 * time.Millisecond) // let the waiter join the run
			if tc.timeout == 0 {
				cancel()
			}
			close(release)

			if err := <-leader; err == nil {
				t.Fatal("leader's run succeeded, want its cancellation or deadline")
			}
			err := <-waiter
			if tc.wantErr == nil && err != nil {
				t.Fatalf("live waiter inherited the leader's error: %v", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("waiter err = %v, want %v", err, tc.wantErr)
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Fatalf("factory invoked %d times, want %d", got, tc.wantCalls)
			}
			st := v.Stats()
			if st.SimRuns != tc.wantRuns || st.CoalescedWaits != tc.wantJoined || st.CacheHits != 0 {
				t.Fatalf("SimRuns=%d CoalescedWaits=%d CacheHits=%d, want %d/%d/0",
					st.SimRuns, st.CoalescedWaits, st.CacheHits, tc.wantRuns, tc.wantJoined)
			}
		})
	}
}

// TestBatchCancelContract pins how a failing batch stops: the first
// error cancels it and is returned, nothing failed is counted or cached,
// and jobs still queued for a slot start nothing. A slot freed just
// before the cancel lands may let one queued job per slot start, so the
// factory runs at most twice per slot.
func TestBatchCancelContract(t *testing.T) {
	injected := errors.New("injected source failure")
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel-%d", parallel), func(t *testing.T) {
			v, ref, tr := resilienceEnv(t)
			v.Parallel = parallel
			var calls atomic.Int32
			factory := func() trace.Source {
				calls.Add(1)
				return &failingSource{Source: tr.Source(), after: 1000, err: injected}
			}
			jobs := make([]Job, 16)
			for i := range jobs {
				jobs[i] = Job{Cfg: ref, Name: traceName("Database", i), Src: factory}
			}
			if _, err := v.measureJobs(context.Background(), jobs); !errors.Is(err, injected) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			if got := v.Stats().SimRuns; got != 0 {
				t.Fatalf("SimRuns = %d, want 0 (every job failed)", got)
			}
			if snap := v.SnapshotCache(); len(snap) != 0 {
				t.Fatalf("failed measurements landed in the cache: %+v", snap)
			}
			if got := calls.Load(); got < 1 || got > int32(2*parallel) {
				t.Fatalf("factory invoked %d times, want 1..%d", got, 2*parallel)
			}

			calls.Store(0)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := v.measureJobs(ctx, jobs); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled batch: err = %v, want context.Canceled", err)
			}
			if got := calls.Load(); got != 0 {
				t.Fatalf("pre-cancelled batch invoked the factory %d times, want 0", got)
			}
		})
	}
}
