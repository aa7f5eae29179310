package core

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/nfs"
	"ioeval/internal/sim"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func quickGoldenBTIO() *synth.App {
	quick := btio.Class{Name: "Q", N: 64, Steps: 5, WriteInterval: 5}
	return synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full}))
}

// pathReportJSON marshals a PathReport the way the export surfaces do.
func pathReportJSON(t *testing.T, pr PathReport) []byte {
	t.Helper()
	b, err := json.MarshalIndent(pr, "", "  ")
	if err != nil {
		t.Fatalf("marshal path report: %v", err)
	}
	return append(b, '\n')
}

// TestPathReportGolden pins the healthy-run span report: the full
// per-level profile, the slowest-level verdict, and the conservation
// numbers on a fixed cluster and workload. Simulation and JSON
// rendering are deterministic, so any diff is a real change; inspect,
// then rerun with -update to accept.
func TestPathReportGolden(t *testing.T) {
	ch, err := characterize(goldenCluster, goldenCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	ev, err := evaluate(goldenCluster(), quickGoldenBTIO(), ch)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	pr := ev.PathReport()
	if !pr.HasSpans {
		t.Fatal("no data spans recorded")
	}
	if !pr.Conserved {
		t.Errorf("conservation violated: root spans %v vs trace I/O %v (drift %v)",
			pr.TopBusy, pr.TraceIO, pr.Drift)
	}
	// Acceptance: the span verdict must name the same binding level as
	// the used-% inference on the BT-IO scenario.
	if !pr.Agree {
		t.Errorf("span verdict %q disagrees with used-%% verdict %q",
			pr.SlowestName, pr.UsedSlowestName)
	}
	compareGolden(t, filepath.Join("testdata", "path_report.golden.json"), pathReportJSON(t, pr))
}

// writeThroughGolden is goldenCluster with write-through page caches,
// so application writes reach the RAID array inside the issuing
// request instead of lingering dirty in the 192 MB I/O cache — the
// quick fixture workload is far too small to force evictions, and
// without array traffic a disk failure cannot mark any request.
func writeThroughGolden() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Name:         "golden-wt",
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
		WriteThrough: true,
		NFSServer:    nfs.DefaultServerParams("golden-nfs"),
		NFSClient:    nfs.DefaultClientParams("golden-nfs"),
	})
}

// TestPathReportDegradedGolden pins the span report of a RAID-5
// disk-failure run: the conservation invariant must hold under an
// armed fault plan (degraded reads fork reconstruction requests whose
// spans still nest), and the profile must carry degraded-path tags.
func TestPathReportDegradedGolden(t *testing.T) {
	plan, err := fault.Builtin("disk-fail")
	if err != nil {
		t.Fatal(err)
	}
	// Land the failure inside the short fixture run's I/O window.
	plan.Events[0].At = 100 * sim.Millisecond
	sess := NewSession(writeThroughGolden,
		WithCharacterizeConfig(goldenCharCfg()),
		WithFaultPlan(plan),
	)
	rep, err := sess.Run(quickGoldenBTIO())
	if err != nil {
		t.Fatalf("session run: %v", err)
	}
	if rep.Degraded == nil {
		t.Fatal("no degraded evaluation")
	}
	pr := rep.Degraded.PathReport()
	if !pr.HasSpans {
		t.Fatal("no data spans recorded")
	}
	if !pr.Conserved {
		t.Errorf("conservation violated under fault plan: root spans %v vs trace I/O %v (drift %v)",
			pr.TopBusy, pr.TraceIO, pr.Drift)
	}
	if pr.Profile.Tags["raid_degraded"] == 0 {
		t.Errorf("no raid_degraded tags in degraded profile: %v", pr.Profile.Tags)
	}
	compareGolden(t, filepath.Join("testdata", "path_report_degraded.golden.json"), pathReportJSON(t, pr))
}

// TestPathReportMadBench checks the acceptance criteria on the second
// workload: conservation and verdict agreement on a MadBench2 run.
func TestPathReportMadBench(t *testing.T) {
	ch, err := characterize(goldenCluster, goldenCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	app := synth.MustCompile(synth.MadbenchSpec(madbench.Config{Procs: 4, KPix: 4, Bins: 4, FileType: madbench.Shared}))
	ev, err := evaluate(goldenCluster(), app, ch)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	pr := ev.PathReport()
	if !pr.HasSpans {
		t.Fatal("no data spans recorded")
	}
	if !pr.Conserved {
		t.Errorf("conservation violated: root spans %v vs trace I/O %v (drift %v)",
			pr.TopBusy, pr.TraceIO, pr.Drift)
	}
	if !pr.Agree {
		t.Errorf("span verdict %q disagrees with used-%% verdict %q",
			pr.SlowestName, pr.UsedSlowestName)
	}
}
