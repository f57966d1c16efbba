package dist

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"autoblox/internal/chaos"
	"autoblox/internal/core"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// TestTuneChaosEquivalence is the chaos acceptance test: a tuning run
// over a TCP fleet whose every connection drops, duplicates, reorders,
// delays, and tears frames on a seeded schedule — plus a full network
// partition window and one worker hard-killed mid-run — must still
// write a checkpoint byte-identical to the serial baseline. Recovery
// flows only through the ordinary paths (lease TTL expiry, idempotent
// result application, worker reconnect with jittered backoff), so this
// pins "chaos is invisible in the results, visible only in the lease
// churn". SSD-level fault injection stays on, so the equivalence holds
// for error results too.
func TestTuneChaosEquivalence(t *testing.T) {
	env := testEnv(t, 1500, ssd.FaultProfile{Rate: 0.02, Seed: 9},
		workload.Database, workload.WebSearch)

	tune := func(label string, parallel int, backend core.Backend) []byte {
		t.Helper()
		v, err := NewValidator(env)
		if err != nil {
			t.Fatal(err)
		}
		v.Parallel = parallel
		v.Backend = backend
		ref := v.Space.FromDevice(ssd.Intel750())
		g, err := core.NewGrader(context.Background(), v, ref, core.DefaultAlpha, core.DefaultBeta)
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), label+".json")
		tuner, err := core.NewTuner(v.Space, v, g, core.TunerOptions{
			Seed: 5, MaxIterations: 5, SGDSteps: 3, Checkpoint: ckpt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := tune("serial", 1, nil)

	transport := chaos.NewTransport(chaos.Schedule{
		Seed:     42,
		Drop:     0.05,
		Dup:      0.05,
		Reorder:  0.05,
		Kill:     0.02,
		Delay:    0.25,
		MaxDelay: 3 * time.Millisecond,
		// One full partition: every write fails, both directions, until
		// the window closes and reconnect backoff lets workers back in.
		Partitions: []chaos.Window{{Start: 400 * time.Millisecond, End: 650 * time.Millisecond}},
	})
	fleet, err := StartFleet(env, FleetOptions{
		Listen:       "127.0.0.1:0",
		LeaseTTL:     750 * time.Millisecond, // lost grants/results recover via expiry
		PollInterval: 25 * time.Millisecond,
		WrapConn:     transport.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	addr := fleet.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &Worker{
			Name:         fmt.Sprintf("chaotic-%d", i),
			Parallel:     2,
			Dial:         transport.Dial,
			ReconnectMax: 400 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.RunReconnect(ctx, addr)
		}()
	}
	// One worker is hard-killed mid-run: no goodbye, no drain — its
	// leases must be reclaimed by TTL expiry or disconnect detection.
	doomedCtx, killDoomed := context.WithCancel(ctx)
	defer killDoomed()
	doomed := &Worker{Name: "doomed", Parallel: 2, Dial: transport.Dial,
		ReconnectMax: 400 * time.Millisecond}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = doomed.RunReconnect(doomedCtx, addr)
	}()
	killTimer := time.AfterFunc(300*time.Millisecond, killDoomed)
	defer killTimer.Stop()

	chaotic := tune("chaos", 0, fleet.Backend())

	// Workers may sit in reconnect backoff (their Closed grant can itself
	// be dropped), so shut them down explicitly before joining.
	cancel()
	wg.Wait()

	if !bytes.Equal(serial, chaotic) {
		t.Errorf("chaos is observable in checkpoint bytes (%d vs %d bytes)",
			len(chaotic), len(serial))
	}
	st := transport.Stats()
	if st.Drops+st.Kills+st.Dups+st.Reorders+st.Delays == 0 {
		t.Errorf("chaos never fired: %+v", st)
	}
	t.Logf("chaos stats: %+v; fleet counters: %+v", st, fleet.Coordinator().Counters())
	if t.Failed() {
		t.Fatalf("serial checkpoint:\n%.2000s", serial)
	}
}
