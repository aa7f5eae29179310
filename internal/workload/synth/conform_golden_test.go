package synth_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/nfs"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// goldenCluster mirrors core's golden fixture cluster: two compute
// nodes, RAID5, small disks, so characterization stays quick and the
// committed fixtures stay small.
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

func goldenCharCfg() core.CharacterizeConfig {
	return core.CharacterizeConfig{
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

// TestSynthConformEvaluationGolden pins the BT-IO *evaluation* —
// io-time, byte counts, the used-% table, and the span-side PathReport
// verdict — on a fixed characterization. The goldens were recorded
// from the original hand-coded BT-IO, so drift in either the DSL
// engine or the evaluation plumbing is caught. The same evaluation's
// telemetry report is pinned by core's TestTelemetryReportGolden.
func TestSynthConformEvaluationGolden(t *testing.T) {
	quick := btio.Class{Name: "Q", N: 64, Steps: 5, WriteInterval: 5}
	ev := evaluateGolden(t, synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full}))

	pr, err := json.MarshalIndent(ev.PathReport(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "synth_btio_evaluation.golden.txt"), []byte(core.FormatEvaluation(ev)))
	compareGolden(t, filepath.Join("testdata", "synth_btio_path_report.golden.json"), append(pr, '\n'))
}

// TestSynthConformMadbenchEvaluation does the same for MADbench2
// (shared file, phase rates in play), against the evaluation text
// recorded from the original hand-coded MADbench2.
func TestSynthConformMadbenchEvaluation(t *testing.T) {
	ev := evaluateGolden(t, synth.MadbenchSpec(madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared}))
	compareGolden(t, filepath.Join("testdata", "synth_madbench_evaluation.golden.txt"), []byte(core.FormatEvaluation(ev)))
}

// evaluateGolden characterizes the golden cluster and evaluates the
// compiled spec on it.
func evaluateGolden(t *testing.T, spec *synth.Spec) *core.Evaluation {
	t.Helper()
	ev, err := core.NewSession(goldenCluster, core.WithCharacterizeConfig(goldenCharCfg())).Evaluate(synth.MustCompile(spec))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return ev
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
			path, got, want)
	}
}
