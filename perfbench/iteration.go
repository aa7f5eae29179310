package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/telemetry"
	app "ioeval/internal/workload"
)

// iteration is one set-up plus one timed phase.
type iteration struct {
	setups      []time.Duration // set-ups timed on their own before it
	setup, wall time.Duration
	cpu         time.Duration // CPU time of every thread during the phase
	// slowdown is how much slower than the reference speed the host
	// ran around the iteration, from the four calibration samples
	// nearest to it (two before, two after; fewer at a pass's ends);
	// 1 in a traced pass, which takes none.
	slowdown           float64
	allocBytes, allocs uint64
	requests           int64 // top-level simulated requests
	digests            map[string]string
	err                error
	trace              *tracker
}

// runIteration sets up and times one phase, after timing extra
// set-ups on their own. The heap is collected before every set-up and
// phase so that they start alike.
func runIteration(e *env, extra int, traced bool) *iteration {
	it := &iteration{}
	for i := 0; i < extra; i++ {
		runtime.GC()
		sw := startWatch()
		if _, err := e.opts.wl.setup(e, newTracker(false)); err != nil {
			it.err = fmt.Errorf("set-up: %w", err)
			return it
		}
		it.setups = append(it.setups, sw.elapsed())
	}
	t := newTracker(traced)
	runtime.GC()
	sw := startWatch()
	ph, err := e.opts.wl.setup(e, t)
	it.setup = sw.elapsed()
	if err != nil {
		it.err = fmt.Errorf("set-up: %w", err)
		return it
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.startPhase()
	cpu0 := cpuTime()
	sw = startWatch()
	out, err := ph()
	it.wall = sw.elapsed()
	it.cpu = cpuTime() - cpu0
	t.endPhase()
	runtime.ReadMemStats(&m1)
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.allocs = m1.Mallocs - m0.Mallocs
	if traced {
		it.trace = t
	}
	if err != nil {
		it.err = err
		return it
	}
	it.requests = topLevelRequests(t.snaps)
	it.digests, it.err = digests(out, t.snaps)
	return it
}

// tracker is handed to the session as its cluster builder. It keeps
// every built cluster's telemetry and, in a traced iteration, the host
// spans around the benchmark's calls into the program.
type tracker struct {
	spans bool
	clock watch
	cur   *cluster.Cluster
	// snaps holds the telemetry of each cluster the phase built, in
	// build order, read once the next build shows it is finished.
	snaps [][]telemetry.Snapshot

	// Spans, recorded only when spans is set: every build (set-up
	// ones included), the first build of the phase, the phase itself,
	// the time inside workload.App.Run and the set-up's store lookup.
	builds     []interval
	phaseFirst int
	phaseSpan  interval
	appRun     time.Duration
	storeHit   time.Duration
}

// interval is a span in host time since the tracker's clock started.
type interval struct{ start, end time.Duration }

func newTracker(spans bool) *tracker { return &tracker{spans: spans, clock: startWatch()} }

// build is the cluster builder the benchmark hands to the session.
func (t *tracker) build() *cluster.Cluster {
	t.flush()
	if !t.spans {
		t.cur = buildAohyper()
		return t.cur
	}
	b := interval{start: t.clock.elapsed()}
	t.cur = buildAohyper()
	b.end = t.clock.elapsed()
	t.builds = append(t.builds, b)
	return t.cur
}

// flush reads the telemetry of the last built cluster, which the
// sequential session no longer uses.
func (t *tracker) flush() {
	if t.cur != nil {
		t.snaps = append(t.snaps, t.cur.Telemetry.Snapshots())
		t.cur = nil
	}
}

// startPhase drops what set-up built: the phase's clusters start here.
func (t *tracker) startPhase() {
	t.flush()
	t.snaps = nil
	t.phaseFirst = len(t.builds)
	t.phaseSpan.start = t.clock.elapsed()
}

func (t *tracker) endPhase() {
	t.phaseSpan.end = t.clock.elapsed()
	t.flush()
}

// wrap returns app, timing its Run in a traced iteration.
func (t *tracker) wrap(a app.App) app.App {
	if !t.spans {
		return a
	}
	return timedApp{App: a, t: t}
}

// timedApp times workload.App.Run.
type timedApp struct {
	app.App
	t *tracker
}

func (a timedApp) Run(c *cluster.Cluster, tr mpiio.Tracer) (app.Result, error) {
	start := a.t.clock.elapsed()
	res, err := a.App.Run(c, tr)
	a.t.appRun += a.t.clock.elapsed() - start
	return res, err
}

// watch measures host time. It is the benchmark's only reader of the
// host clock: host time is what the benchmark measures, and it never
// reaches the simulation.
type watch struct{ start time.Time }

func startWatch() watch {
	return watch{start: time.Now()}
}

func (w watch) elapsed() time.Duration {
	return time.Since(w.start)
}

// cpuTime is the process's user plus system CPU time so far; 0 where
// the system cannot tell.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
