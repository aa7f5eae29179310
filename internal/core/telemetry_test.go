package core

import (
	"sync"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// A real BT-IO run: the per-phase interval deltas must tile the run
// and, component by component, sum exactly to the final counters —
// the invariant that makes per-phase rates trustworthy.
func TestEvaluatePhaseDeltasSumToTotals(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	quick := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}
	app := synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full}))
	ev, err := evaluate(c, app, &Characterization{Config: "test"})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if len(ev.Phases()) < 2 {
		t.Fatalf("phases = %d, want several (BT-IO dumps + read-back)", len(ev.Phases()))
	}
	if len(ev.Components()) == 0 {
		t.Fatal("no component snapshots")
	}

	// Contiguous tiling from t=0.
	if ev.Phases()[0].Start != 0 {
		t.Fatalf("first phase starts at %v", ev.Phases()[0].Start)
	}
	for i := 1; i < len(ev.Phases()); i++ {
		if ev.Phases()[i].Start != ev.Phases()[i-1].End {
			t.Fatalf("gap before phase %d: %v != %v", i, ev.Phases()[i-1].End, ev.Phases()[i].Start)
		}
	}

	// Sum deltas per component and compare to the final snapshots.
	type tot struct{ readOps, readBytes, writeOps, writeBytes, metaOps int64 }
	sums := map[string]*tot{}
	for _, ph := range ev.Phases() {
		for _, s := range ph.Snaps {
			c := s.Counters
			for _, o := range []telemetry.OpCounters{c.Read, c.Write, c.Meta} {
				if o.Ops < 0 || o.Bytes < 0 || o.Busy < 0 || o.Lat.Total() < 0 {
					t.Fatalf("negative counters in phase %q component %q: %+v", ph.Label, s.Component, c)
				}
			}
			a := sums[s.Component]
			if a == nil {
				a = &tot{}
				sums[s.Component] = a
			}
			a.readOps += c.Read.Ops
			a.readBytes += c.Read.Bytes
			a.writeOps += c.Write.Ops
			a.writeBytes += c.Write.Bytes
			a.metaOps += c.Meta.Ops
		}
	}
	for _, s := range ev.Components() {
		a := sums[s.Component]
		if a == nil {
			t.Fatalf("component %q missing from phase snapshots", s.Component)
		}
		c := s.Counters
		if a.readOps != c.Read.Ops || a.readBytes != c.Read.Bytes ||
			a.writeOps != c.Write.Ops || a.writeBytes != c.Write.Bytes ||
			a.metaOps != c.Meta.Ops {
			t.Fatalf("component %q: phase deltas %+v do not sum to totals read=%+v write=%+v meta=%+v",
				s.Component, *a, c.Read, c.Write, c.Meta)
		}
	}

	// The library-level snapshot must reflect the application's I/O.
	var lib *telemetry.Snapshot
	for i := range ev.Components() {
		if ev.Components()[i].Level == telemetry.LevelLibrary {
			lib = &ev.Components()[i]
		}
	}
	if lib == nil {
		t.Fatal("no library-level component")
	}
	if lib.Counters.Write.Bytes != ev.Result().BytesWritten {
		t.Fatalf("library write bytes %d != result %d", lib.Counters.Write.Bytes, ev.Result().BytesWritten)
	}
	if lib.Counters.Read.Bytes != ev.Result().BytesRead {
		t.Fatalf("library read bytes %d != result %d", lib.Counters.Read.Bytes, ev.Result().BytesRead)
	}
}

// The JSON report's per-level rows must carry exactly the numbers the
// used-percentage analysis computed (the report cannot diverge from
// the evaluation).
func TestTelemetryReportLevelsMatchUsed(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	ch, err := characterize(build, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	quick := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}
	ev, err := evaluate(build(), synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full})), ch)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	rep := ev.TelemetryReport()
	if len(rep.Levels) != len(ev.Used()) {
		t.Fatalf("levels = %d, used rows = %d", len(rep.Levels), len(ev.Used()))
	}
	for i, u := range ev.Used() {
		l := rep.Levels[i]
		if l.Level != u.Level.TelemetryLevel() || l.Op != u.Op.String() ||
			l.BlockSize != u.BlockSize || l.Mode != u.Mode.String() ||
			l.MeasuredRate != u.MeasuredRate || l.CharRate != u.CharRate ||
			l.UsedPct != u.UsedPct || l.CharAvailable != u.CharAvailable {
			t.Fatalf("level row %d = %+v diverges from used row %+v", i, l, u)
		}
	}
	if len(rep.Components) == 0 || len(rep.Phases) == 0 {
		t.Fatalf("report incomplete: %d components, %d phases", len(rep.Components), len(rep.Phases))
	}
}

func TestLevelTelemetryMapping(t *testing.T) {
	want := map[Level]telemetry.Level{
		LevelIOLib:   telemetry.LevelLibrary,
		LevelNFS:     telemetry.LevelGlobalFS,
		LevelLocalFS: telemetry.LevelLocalFS,
	}
	for l, tl := range want {
		if got := l.TelemetryLevel(); got != tl {
			t.Fatalf("%v maps to %v, want %v", l, got, tl)
		}
	}
}

// Characterization memoization must be safe under concurrent first
// use (run with -race): exactly one characterization is computed and
// every caller sees the same pointer.
func TestSessionCharacterizationConcurrent(t *testing.T) {
	cfg := quickCharCfg()
	cfg.FSBlockSizes = cfg.FSBlockSizes[:1]
	cfg.FSModes = cfg.FSModes[:2]
	cfg.LibBlockSizes = cfg.LibBlockSizes[:1]
	m := NewSession(
		func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) },
		WithCharacterizeConfig(cfg),
	)
	const n = 8
	chans := make([]*Characterization, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := m.Characterization()
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			chans[i] = ch
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if chans[i] != chans[0] {
			t.Fatalf("goroutine %d got a different characterization", i)
		}
	}
}
