package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/trace"
)

// simTiming is one simulation as seen through its trace source: the
// simulator draws the source, builds and prefills the device (setup),
// rewinds for the warm-up pass, rewinds again for the measured replay
// pass and drains the stream.
type simTiming struct {
	start, warmStart, replayStart, end time.Time
	requests                           int64 // replayed by the measured pass
}

func (s simTiming) setup() time.Duration  { return s.warmStart.Sub(s.start) }
func (s simTiming) warmup() time.Duration { return s.replayStart.Sub(s.warmStart) }
func (s simTiming) replay() time.Duration { return s.end.Sub(s.replayStart) }

// probeMode says how much of each simulation a simProbe stamps.
type probeMode int

const (
	// probeCount only counts factory calls.
	probeCount probeMode = iota
	// probeSetup also stamps the factory call and the first Reset: two
	// timestamps per simulation, giving its device set-up alone.
	probeSetup
	// probeFull stamps the second Reset and the end of stream as well,
	// splitting each simulation into set-up, warm-up and replay.
	probeFull
)

// simProbe wraps trace-source factories. It always counts factory calls
// — every fresh local simulation draws exactly one source — and stamps
// what its mode asks for. It never times individual requests.
type simProbe struct {
	mode  probeMode
	calls atomic.Int64

	mu   sync.Mutex
	sims []simTiming
}

func (p *simProbe) wrap(f trace.SourceFactory) trace.SourceFactory {
	return func() trace.Source {
		p.calls.Add(1)
		if p.mode == probeCount {
			return f()
		}
		t0 := time.Now()
		return &probedSource{Source: f(), p: p, t: simTiming{start: t0}}
	}
}

// timings returns the simulations recorded so far: those past their
// first Reset (probeSetup) or their end of stream (probeFull).
func (p *simProbe) timings() []simTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]simTiming(nil), p.sims...)
}

func (p *simProbe) record(t simTiming) {
	p.mu.Lock()
	p.sims = append(p.sims, t)
	p.mu.Unlock()
}

type probedSource struct {
	trace.Source
	p      *simProbe
	t      simTiming
	resets int
	done   bool
}

func (s *probedSource) Reset() {
	now := time.Now()
	s.resets++
	switch s.resets {
	case 1:
		s.t.warmStart = now
		if s.p.mode == probeSetup {
			s.p.record(s.t)
		}
	case 2:
		s.t.replayStart = now
	}
	s.Source.Reset()
}

func (s *probedSource) Next() (trace.Request, bool) {
	r, ok := s.Source.Next()
	if s.resets == 2 && !s.done && s.p.mode == probeFull {
		if ok {
			s.t.requests++
		} else {
			s.done = true
			s.t.end = time.Now()
			s.p.record(s.t)
		}
	}
	return r, ok
}

// timedBackend decorates a validation backend (the fleet coordinator),
// recording every Measure call's span and outcome.
type timedBackend struct {
	inner core.Backend
	ok    atomic.Int64

	mu    sync.Mutex
	spans []interval
}

func (b *timedBackend) Measure(ctx context.Context, job core.Job) (autodb.Perf, error) {
	t0 := time.Now()
	perf, err := b.inner.Measure(ctx, job)
	t1 := time.Now()
	if err == nil {
		b.ok.Add(1)
	}
	b.mu.Lock()
	b.spans = append(b.spans, interval{t0, t1})
	b.mu.Unlock()
	return perf, err
}

func (b *timedBackend) Stats() core.BackendStats { return b.inner.Stats() }

func (b *timedBackend) measured() []interval {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]interval(nil), b.spans...)
}

// tracer keeps spans in memory; write dumps them once the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// begin opens a span at start and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.UnixNano()})
	return len(t.spans)
}

func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = at.UnixNano()
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int, iv interval) {
	t.end(t.begin(name, parent, iv.start), iv.end)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
