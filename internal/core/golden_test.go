package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/nfs"
	"ioeval/internal/sim"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCluster is deliberately tiny (two compute nodes) so the
// committed fixture stays small.
func goldenCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Name:         "golden",
		ComputeNodes: 2,
		NodeRAM:      256 * mb,
		NodeDiskCap:  10 * gb,
		NodeDiskRate: 90e6,
		IONodeRAM:    256 * mb,
		IODiskCap:    20 * gb,
		IODiskRate:   100e6,
		Org:          cluster.RAID5,
		StripeUnit:   256 * kb,
		RAID5Disks:   5,
		NFSServer:    nfs.DefaultServerParams("golden-nfs"),
		NFSClient:    nfs.DefaultClientParams("golden-nfs"),
	})
}

// goldenCharCfg keeps the fixture characterizations quick.
func goldenCharCfg() CharacterizeConfig {
	return CharacterizeConfig{
		FSBlockSizes:   []int64{64 * kb, mb},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  64 * mb,
		GlobalFileSize: 64 * mb,
		LibProcs:       2,
		LibBlockSizes:  []int64{4 * mb},
		LibTransfer:    256 * kb,
		LibFileSize:    16 * mb,
		RandomOps:      128,
	}
}

// TestTelemetryReportGolden pins the exported telemetry-report format
// on a fixed cluster and workload. The simulation is deterministic, so
// any diff is a real format or model change: inspect it, then rerun
// with -update to accept.
func TestTelemetryReportGolden(t *testing.T) {
	ch, err := characterize(goldenCluster, goldenCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	quick := btio.Class{Name: "Q", N: 64, Steps: 5, WriteInterval: 5}
	ev, err := evaluate(goldenCluster(), synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full})), ch)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	var buf bytes.Buffer
	if err := ev.TelemetryReport().WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	compareGolden(t, filepath.Join("testdata", "telemetry_report.golden.json"), buf.Bytes())
}

// TestDegradedReportGolden pins the degraded-mode report surface — the
// fault-tagged evaluation rendering, the healthy-vs-degraded used-%
// comparison, and the degraded telemetry report (which carries the
// fault injector's own probe). Deterministic; rerun with -update to
// accept intended format changes.
func TestDegradedReportGolden(t *testing.T) {
	plan, err := fault.Builtin("nfs-stall")
	if err != nil {
		t.Fatal(err)
	}
	// Land the stall inside the short fixture run's I/O window so the
	// degraded half shows real retry traffic and rate deltas.
	plan.Events[0].At = 100 * sim.Millisecond
	sess := NewSession(goldenCluster,
		WithCharacterizeConfig(goldenCharCfg()),
		WithFaultPlan(plan),
	)
	quick := btio.Class{Name: "Q", N: 64, Steps: 5, WriteInterval: 5}
	rep, err := sess.Run(synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full})))
	if err != nil {
		t.Fatalf("session run: %v", err)
	}
	if rep.Degraded == nil {
		t.Fatal("no degraded evaluation")
	}
	text := FormatEvaluation(rep.Degraded) + "\n" +
		FormatUsedComparison(rep.Evaluation.Used(), rep.Degraded.Used())
	compareGolden(t, filepath.Join("testdata", "degraded_report.golden.txt"), []byte(text))

	var buf bytes.Buffer
	if err := rep.Degraded.TelemetryReport().WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	compareGolden(t, filepath.Join("testdata", "degraded_telemetry.golden.json"), buf.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output; diff the file and rerun with -update if intended.\n--- got ---\n%s\n--- want ---\n%s",
			path, clip(got), clip(want))
	}
}

func clip(b []byte) []byte {
	const max = 4096
	if len(b) <= max {
		return b
	}
	return append(append([]byte{}, b[:max]...), []byte("... (truncated)")...)
}
