package core

import (
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// syntheticTrace builds a trace with w write phases of wBytes and one
// read phase, mimicking the BT-IO structure.
func syntheticTrace(w int, wBytes, rBytes int64) *trace.Tracer {
	tr := trace.New()
	tm := sim.Time(0)
	for i := 0; i < w; i++ {
		tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpCompute, Offset: -1, T0: tm, T1: tm + 100})
		tm += 100
		tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpWrite, File: "/f", Offset: int64(i) * wBytes,
			Bytes: wBytes, Count: 1, Span: wBytes, T0: tm, T1: tm + 50})
		tm += 50
	}
	tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpBarrier, Offset: -1, T0: tm, T1: tm + 1})
	tm++
	tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpRead, File: "/f", Offset: 0,
		Bytes: rBytes, Count: 1, Span: rBytes, T0: tm, T1: tm + 50})
	return tr
}

func modelChar(writeRate, readRate float64) *Characterization {
	return &Characterization{Config: "synthetic", Tables: map[Level]*PerfTable{
		LevelIOLib: {Level: LevelIOLib, Rows: []Row{
			{Op: Write, BlockSize: 1 << 20, Access: Global, Mode: trace.Sequential, Rate: writeRate},
			{Op: Read, BlockSize: 1 << 20, Access: Global, Mode: trace.Sequential, Rate: readRate},
		}},
	}}
}

func TestBuildModelFromSignature(t *testing.T) {
	tr := syntheticTrace(40, 10<<20, 10<<20)
	m := BuildModel("app", tr, 16)
	if len(m.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (write pattern + read pattern): %+v", len(m.Phases), m.Phases)
	}
	w := m.Phases[0]
	if w.Kind != Write || w.Weight != 40 || w.Bytes != 10<<20 {
		t.Fatalf("write pattern = %+v", w)
	}
	if got := m.TotalBytes(Write); got != 40*16*(10<<20) {
		t.Fatalf("total write bytes = %d", got)
	}
}

func TestPredictArithmetic(t *testing.T) {
	tr := syntheticTrace(10, 10<<20, 100<<20)
	m := BuildModel("app", tr, 4)
	// Write: 10 occurrences × 10 MiB × 4 ranks = 400 MiB at 100 MB/s
	// ⇒ ~4.19 s. Read: 1 × 100 MiB × 4 = 400 MiB at 50 MB/s ⇒ ~8.39 s.
	pred := Predict(m, modelChar(100e6, 50e6))
	if s := pred.WriteTime.Seconds(); s < 4.1 || s > 4.3 {
		t.Fatalf("predicted write time = %v", pred.WriteTime)
	}
	if s := pred.ReadTime.Seconds(); s < 8.3 || s > 8.5 {
		t.Fatalf("predicted read time = %v", pred.ReadTime)
	}
	if pred.IOTime != pred.WriteTime+pred.ReadTime {
		t.Fatal("IO time must be the sum of directions")
	}
}

func TestPredictUsesBindingLevel(t *testing.T) {
	ch := modelChar(100e6, 100e6)
	ch.Tables[LevelNFS] = &PerfTable{Level: LevelNFS, Rows: []Row{
		{Op: Write, BlockSize: 1 << 20, Access: Global, Mode: trace.Sequential, Rate: 10e6}, // slowest level
	}}
	tr := syntheticTrace(1, 10<<20, 10<<20)
	m := BuildModel("app", tr, 1)
	pred := Predict(m, ch)
	if pred.Phases[0].Level != LevelNFS || pred.Phases[0].Rate != 10e6 {
		t.Fatalf("binding level = %+v", pred.Phases[0])
	}
}

func TestSelectConfigurationRanks(t *testing.T) {
	fast := modelChar(200e6, 200e6)
	fast.Config = "fast"
	slow := modelChar(20e6, 20e6)
	slow.Config = "slow"
	tr := syntheticTrace(5, 10<<20, 10<<20)
	m := BuildModel("app", tr, 4)
	ranked := SelectConfiguration(m, []*Characterization{slow, fast})
	if len(ranked) != 2 || ranked[0].Config != "fast" {
		t.Fatalf("ranking = %+v", ranked)
	}
	if ranked[0].IOTime >= ranked[1].IOTime {
		t.Fatal("ranking not by predicted I/O time")
	}
}

func TestFormatPrediction(t *testing.T) {
	tr := syntheticTrace(2, 1<<20, 1<<20)
	m := BuildModel("app", tr, 2)
	out := FormatPrediction(Predict(m, modelChar(50e6, 50e6)))
	if !strings.Contains(out, "Predicted I/O time") || !strings.Contains(out, "binding level") {
		t.Fatalf("render:\n%s", out)
	}
}

// End-to-end model validation: predict BT-IO from a trace captured on
// one run, compare against the measured I/O time of that run. The
// model is coarse (it ignores cache wins and op-count client costs)
// but must preserve ordering and land within a small factor for the
// pattern-bound simple subtype.
func TestModelValidationAgainstRuns(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	ch, err := characterize(build, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	quickClass := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}

	run := func(st btio.Subtype) (*Evaluation, Prediction) {
		app := synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quickClass, Procs: 4, Subtype: st}))
		ev, err := evaluate(build(), app, ch)
		if err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		m := BuildModel(app.Name(), ev.Trace(), 4)
		return ev, Predict(m, ch)
	}
	evFull, predFull := run(btio.Full)
	evSimple, predSimple := run(btio.Simple)

	// Ordering: the model must agree that simple is far slower.
	if predSimple.IOTime <= predFull.IOTime {
		t.Fatalf("model ordering wrong: simple %v vs full %v", predSimple.IOTime, predFull.IOTime)
	}
	// Accuracy: within 4x either way for both subtypes (the model has
	// only the characterized rate tables to go on).
	check := func(name string, measured, predicted sim.Duration) {
		ratio := float64(predicted) / float64(measured)
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s: predicted %v vs measured %v (ratio %.2f)", name, predicted, measured, ratio)
		}
	}
	check("full", evFull.Result().IOTime, predFull.IOTime)
	check("simple", evSimple.Result().IOTime, predSimple.IOTime)
}
