package dist

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// testEnv builds a small fingerprinted env over seeded synthetic
// workloads.
func testEnv(t *testing.T, requests int, faults ssd.FaultProfile, cats ...workload.Category) *Env {
	t.Helper()
	if len(cats) == 0 {
		cats = []workload.Category{workload.Database, workload.WebSearch}
	}
	specs := make(map[string][]WorkloadSpec, len(cats))
	for _, c := range cats {
		specs[string(c)] = []WorkloadSpec{{Category: string(c), Requests: requests, Seed: 21}}
	}
	env, err := NewEnv(ssdconf.DefaultConstraints(), false, faults, specs)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// fakeWorker is a raw protocol client for fault injection: it can
// handshake with arbitrary fingerprints, hold leases without answering,
// and send crafted/duplicate/reordered results.
type fakeWorker struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialFake(t *testing.T, c *Coordinator) *fakeWorker {
	t.Helper()
	server, client := net.Pipe()
	go func() { _ = c.ServeConn(server) }()
	return &fakeWorker{t: t, conn: client, r: bufio.NewReader(client)}
}

func (f *fakeWorker) send(m *Message) {
	f.t.Helper()
	if err := Encode(f.conn, m); err != nil {
		f.t.Fatalf("fake worker send %s: %v", m.Type, err)
	}
}

func (f *fakeWorker) recv() *Message {
	f.t.Helper()
	m, err := Decode(f.r)
	if err != nil {
		f.t.Fatalf("fake worker recv: %v", err)
	}
	return m
}

// handshake runs hello/confirm with the given fingerprint and returns
// the coordinator's final answer (Accept or Reject).
func (f *fakeWorker) handshake(name, sig string) *Message {
	f.t.Helper()
	f.send(&Message{Type: MsgHello, Hello: &Hello{Worker: name, Version: ProtocolVersion}})
	m := f.recv()
	if m.Type == MsgReject {
		return m
	}
	if m.Type != MsgWelcome {
		f.t.Fatalf("expected welcome, got %s", m.Type)
	}
	f.send(&Message{Type: MsgConfirm, Confirm: &Confirm{SpaceSig: sig}})
	return f.recv()
}

func (f *fakeWorker) mustAccept(name, sig string) {
	f.t.Helper()
	if m := f.handshake(name, sig); m.Type != MsgAccept {
		f.t.Fatalf("handshake not accepted: %s", m.Type)
	}
}

// leaseAtLeast polls until it holds at least n leases (batched work may
// arrive over several grants as Measure callers trickle in).
func (f *fakeWorker) leaseAtLeast(n int) []Lease {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var out []Lease
	for len(out) < n {
		if time.Now().After(deadline) {
			f.t.Fatalf("leased only %d/%d jobs before timeout", len(out), n)
		}
		f.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: n - len(out)}})
		m := f.recv()
		if m.Type != MsgLeaseGrant {
			f.t.Fatalf("expected lease-grant, got %s", m.Type)
		}
		if m.LeaseGrant.Closed {
			f.t.Fatal("coordinator closed while leasing")
		}
		out = append(out, m.LeaseGrant.Leases...)
	}
	return out
}

// measureAsync drives a validator batch in the background.
func measureAsync(ctx context.Context, v *core.Validator, cfgs []ssdconf.Config) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := v.MeasureBatch(ctx, cfgs, v.Clusters())
		done <- err
	}()
	return done
}

func distinctConfigs(t *testing.T, space *ssdconf.Space, n int) []ssdconf.Config {
	t.Helper()
	ref := space.FromDevice(ssd.Intel750())
	i, err := space.ParamIndex("QueueDepth")
	if err != nil {
		t.Fatal(err)
	}
	if vals := len(space.Params[i].Values); n > vals {
		t.Fatalf("need %d values on QueueDepth, grid has %d", n, vals)
	}
	out := make([]ssdconf.Config, n)
	for k := 0; k < n; k++ {
		cfg := ref.Clone()
		cfg[i] = k
		out[k] = cfg
	}
	return out
}

// startLoopbackWorker attaches one real worker to the coordinator over
// net.Pipe and returns its exit future.
func startLoopbackWorker(ctx context.Context, c *Coordinator, w *Worker) chan error {
	server, client := net.Pipe()
	go func() { _ = c.ServeConn(server) }()
	done := make(chan error, 1)
	go func() { done <- w.RunConn(ctx, client) }()
	return done
}

// TestWorkerDeathReassignsLeases kills a worker holding leases
// mid-batch: the coordinator must expire its leases immediately, a
// surviving worker must re-run them, and the validator's extended
// accounting law must still balance.
func TestWorkerDeathReassignsLeases(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{})
	reg := obs.NewRegistry()
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     time.Minute, // death, not TTL, must trigger reassignment
		PollInterval: 25 * time.Millisecond,
		Obs:          reg,
	})
	defer coord.Close()
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord

	cfgs := distinctConfigs(t, v.Space, 2)
	jobs := len(cfgs) * len(v.Clusters())

	// The doomed worker grabs every job first, then dies without
	// answering.
	fake := dialFake(t, coord)
	fake.mustAccept("doomed", env.SpaceSig)
	batch := measureAsync(context.Background(), v, cfgs)
	leased := fake.leaseAtLeast(jobs)
	fake.conn.Close()

	// A real worker joins and must complete everything.
	ctx := context.Background()
	wdone := startLoopbackWorker(ctx, coord, &Worker{Name: "survivor", Parallel: 2})
	if err := <-batch; err != nil {
		t.Fatalf("batch after worker death: %v", err)
	}

	fc := coord.Counters()
	if fc.Expired < int64(len(leased)) {
		t.Fatalf("Expired = %d, want >= %d (dead worker's leases)", fc.Expired, len(leased))
	}
	if fc.Reassigned < int64(len(leased)) {
		t.Fatalf("Reassigned = %d, want >= %d", fc.Reassigned, len(leased))
	}
	if got := reg.Counter(MetricLeasesExpired).Value(); got != fc.Expired {
		t.Fatalf("registry expired = %d, counters say %d", got, fc.Expired)
	}

	// Accounting law with a remote backend: every MeasureTrace call is
	// exactly one of {local sim, cache hit, coalesced wait, remote result}.
	st := v.Stats()
	if st.SimRuns != 0 {
		t.Fatalf("local SimRuns = %d on a distributed run", st.SimRuns)
	}
	if st.RemoteResults != int64(jobs) {
		t.Fatalf("RemoteResults = %d, want %d", st.RemoteResults, jobs)
	}
	if got := st.SimRuns + st.CacheHits + st.CoalescedWaits + st.RemoteResults; got != int64(jobs) {
		t.Fatalf("accounting law: %d calls accounted, want %d", got, jobs)
	}

	coord.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("surviving worker exit: %v", err)
	}
}

// TestDroppedResultExpiresAndReassigns holds leases past their TTL
// without replying (a dropped result message): the coordinator must
// reassign, and the late worker's eventual results must apply
// idempotently as duplicates.
func TestDroppedResultExpiresAndReassigns(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     150 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
	})
	defer coord.Close()
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord

	cfgs := distinctConfigs(t, v.Space, 2)
	jobs := len(cfgs) * len(v.Clusters())

	fake := dialFake(t, coord)
	fake.mustAccept("silent", env.SpaceSig)
	batch := measureAsync(context.Background(), v, cfgs)
	leased := fake.leaseAtLeast(jobs)
	// Sit on the leases: never answer, never disconnect.

	wdone := startLoopbackWorker(context.Background(), coord, &Worker{Name: "rescuer", Parallel: 2})
	if err := <-batch; err != nil {
		t.Fatalf("batch after dropped results: %v", err)
	}

	fc := coord.Counters()
	if fc.Expired < int64(len(leased)) {
		t.Fatalf("Expired = %d, want >= %d (TTL must reclaim silent leases)", fc.Expired, len(leased))
	}
	if fc.Reassigned < int64(len(leased)) {
		t.Fatalf("Reassigned = %d, want >= %d", fc.Reassigned, len(leased))
	}

	// The silent worker finally answers with stale results: all must be
	// dropped as duplicates without corrupting anything.
	results := make([]JobResult, len(leased))
	for i, l := range leased {
		results[i] = JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
			Perf: autodb.Perf{LatencyNS: -1, ThroughputBps: -1}, SimNS: 1}
	}
	fake.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "silent", Results: results, BusyNS: 1}})
	waitFor(t, func() bool { return coord.Counters().Duplicates >= int64(len(leased)) },
		"late results counted as duplicates")

	// Stale values must not have overwritten the real measurements.
	for _, cfg := range cfgs {
		p, err := v.MeasureTrace(context.Background(), cfg, string(workload.Database)+"#0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.LatencyNS <= 0 {
			t.Fatalf("stale duplicate overwrote cache: %+v", p)
		}
	}

	coord.Close()
	<-wdone
}

// TestResultReorderAndDuplicates sends results out of order, twice, and
// for unknown keys; application must be idempotent.
func TestResultReorderAndDuplicates(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 25 * time.Millisecond})
	defer coord.Close()

	cfgs := distinctConfigs(t, env.Space(), 2)
	type res struct {
		perf autodb.Perf
		err  error
	}
	resCh := make([]chan res, len(cfgs))
	for i, cfg := range cfgs {
		resCh[i] = make(chan res, 1)
		go func(i int, cfg ssdconf.Config) {
			p, err := coord.Measure(context.Background(), core.Job{Cfg: cfg, Name: "Database#0"})
			resCh[i] <- res{p, err}
		}(i, cfg)
	}

	fake := dialFake(t, coord)
	fake.mustAccept("crafty", env.SpaceSig)
	leases := fake.leaseAtLeast(len(cfgs))

	// Answer in reverse lease order, one message per result, with
	// distinguishable crafted perfs...
	for i := len(leases) - 1; i >= 0; i-- {
		l := leases[i]
		fake.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "crafty", Results: []JobResult{
			{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
				Perf: autodb.Perf{LatencyNS: int64(1000 + i), ThroughputBps: 1}, SimNS: 5},
		}}})
	}
	// ...then replay the whole batch (pure duplicates), plus one result
	// for a key nobody asked for.
	dup := make([]JobResult, len(leases))
	for i, l := range leases {
		dup[i] = JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
			Perf: autodb.Perf{LatencyNS: 1, ThroughputBps: 1}, SimNS: 5}
	}
	dup = append(dup, JobResult{LeaseID: 999, CfgKey: "no-such-cfg", Name: "Database#0",
		Perf: autodb.Perf{LatencyNS: 1}, SimNS: 1})
	fake.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "crafty", Results: dup, BusyNS: 10}})

	// Every Measure call must resolve with its first-applied result.
	byKey := map[string]autodb.Perf{}
	for i, l := range leases {
		byKey[l.CfgKey] = autodb.Perf{LatencyNS: int64(1000 + i), ThroughputBps: 1}
	}
	for i, cfg := range cfgs {
		r := <-resCh[i]
		if r.err != nil {
			t.Fatalf("Measure(%d): %v", i, r.err)
		}
		want := byKey[cfg.Key()]
		if r.perf != want {
			t.Fatalf("Measure(%d) = %+v, want first-applied %+v", i, r.perf, want)
		}
	}
	waitFor(t, func() bool { return coord.Counters().Duplicates >= int64(len(dup)) },
		"replayed + unknown results counted as duplicates")
	if fc := coord.Counters(); fc.Expired != 0 || fc.Reassigned != 0 {
		t.Fatalf("no lease should have expired: %+v", fc)
	}
}

// TestHandshakeRejections covers both typed refusals, coordinator- and
// worker-side.
func TestHandshakeRejections(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)

	t.Run("version", func(t *testing.T) {
		coord := NewCoordinator(env, CoordinatorOptions{})
		defer coord.Close()
		fake := dialFake(t, coord)
		fake.send(&Message{Type: MsgHello, Hello: &Hello{Worker: "old", Version: ProtocolVersion + 7}})
		m := fake.recv()
		if m.Type != MsgReject || m.Reject.Code != RejectVersion {
			t.Fatalf("want version reject, got %+v", m)
		}
		if !errors.Is(m.Reject.Err(), ErrVersionMismatch) {
			t.Fatalf("reject not typed: %v", m.Reject.Err())
		}
		if coord.Counters().HandshakeRejects != 1 {
			t.Fatalf("HandshakeRejects = %d, want 1", coord.Counters().HandshakeRejects)
		}
	})

	t.Run("space-mismatch", func(t *testing.T) {
		// A coordinator whose announced fingerprint cannot be reproduced
		// plays the role of a binary-skew peer for a REAL worker.
		skewed := *env
		skewed.SpaceSig = "deadbeefdeadbeef"
		coord := NewCoordinator(&skewed, CoordinatorOptions{})
		defer coord.Close()
		wdone := startLoopbackWorker(context.Background(), coord, &Worker{Name: "skewed"})
		err := <-wdone
		if !errors.Is(err, ErrSpaceMismatch) {
			t.Fatalf("worker exit = %v, want ErrSpaceMismatch", err)
		}
		fc := coord.Counters()
		if fc.HandshakeRejects != 1 {
			t.Fatalf("HandshakeRejects = %d, want 1", fc.HandshakeRejects)
		}
		if fc.Granted != 0 {
			t.Fatalf("a rejected worker was granted %d leases", fc.Granted)
		}
	})

	t.Run("fake-wrong-sig", func(t *testing.T) {
		coord := NewCoordinator(env, CoordinatorOptions{})
		defer coord.Close()
		fake := dialFake(t, coord)
		m := fake.handshake("liar", "0000000000000000")
		if m.Type != MsgReject || m.Reject.Code != RejectSpace {
			t.Fatalf("want space reject, got %+v", m)
		}
		if !errors.Is(m.Reject.Err(), ErrSpaceMismatch) {
			t.Fatalf("reject not typed: %v", m.Reject.Err())
		}
	})
}

// TestEnvValidation: unreconstructible workloads must fail at NewEnv,
// not on a worker.
func TestEnvValidation(t *testing.T) {
	_, err := NewEnv(ssdconf.DefaultConstraints(), false, ssd.FaultProfile{},
		map[string][]WorkloadSpec{"x": {{Category: "NoSuchCategory", Requests: 10, Seed: 1}}})
	if err == nil {
		t.Fatal("NewEnv accepted an unknown workload category")
	}
	if _, err := NewEnv(ssdconf.DefaultConstraints(), false, ssd.FaultProfile{}, nil); err == nil {
		t.Fatal("NewEnv accepted an empty workload map")
	}
}

// TestEnvCovers pins the fleet-compatibility predicate used by the CLIs
// to decide remote vs local validation per environment.
func TestEnvCovers(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database, workload.WebSearch)
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	if !env.Covers(space, []string{"Database"}, 600, 21) {
		t.Fatal("env must cover a subset of its clusters")
	}
	if env.Covers(space, []string{"KVStore"}, 600, 21) {
		t.Fatal("env covers a cluster it has no spec for")
	}
	if env.Covers(space, []string{"Database"}, 601, 21) {
		t.Fatal("env covers mismatched trace length")
	}
	if env.Covers(ssdconf.NewWhatIfSpace(ssdconf.DefaultConstraints()), []string{"Database"}, 600, 21) {
		t.Fatal("env covers a different space")
	}
}

// TestFleetConcurrentBackend runs a multi-worker fleet under heavy
// concurrent validator traffic with overlapping keys — the distributed
// singleflight must hold the accounting law and never run a key twice
// on the same validator.
func TestFleetConcurrentBackend(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{})
	fleet, err := StartFleet(env, FleetOptions{
		Workers:      2,
		PollInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = fleet.Backend()

	cfgs := distinctConfigs(t, v.Space, 3)
	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	distinct := int64(len(cfgs) * len(v.Clusters()))
	st := v.Stats()
	calls := int64(callers) * distinct
	if st.RemoteResults != distinct {
		t.Fatalf("RemoteResults = %d, want %d distinct keys", st.RemoteResults, distinct)
	}
	if got := st.SimRuns + st.CacheHits + st.CoalescedWaits + st.RemoteResults; got != calls {
		t.Fatalf("accounting law: %d accounted, want %d", got, calls)
	}
	if st.Backend.Kind != core.BackendKindDist {
		t.Fatalf("Backend.Kind = %q, want %q", st.Backend.Kind, core.BackendKindDist)
	}
	if st.Backend.Jobs != distinct {
		t.Fatalf("backend Jobs = %d, want %d", st.Backend.Jobs, distinct)
	}
	if st.Backend.SimBusy <= 0 {
		t.Fatal("backend SimBusy not reported")
	}
}

// TestFleetTCPTransport exercises the real socket path end to end: a
// fleet with no loopback workers, one remote worker dialing TCP.
func TestFleetTCPTransport(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	fleet, err := StartFleet(env, FleetOptions{
		Listen:       "127.0.0.1:0",
		PollInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	w := &Worker{Name: "tcp-worker", Parallel: 2}
	wdone := make(chan error, 1)
	go func() { wdone <- w.Run(context.Background(), fleet.Addr()) }()

	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = fleet.Backend()
	cfgs := distinctConfigs(t, v.Space, 2)
	if _, err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().RemoteResults; got != int64(len(cfgs)) {
		t.Fatalf("RemoteResults = %d, want %d", got, len(cfgs))
	}
	if w.Jobs() != int64(len(cfgs)) {
		t.Fatalf("worker measured %d jobs, want %d", w.Jobs(), len(cfgs))
	}

	fleet.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("worker exit after close: %v", err)
	}
}

// waitFor polls a condition with a deadline (counters are updated
// asynchronously to the fake worker's sends).
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
