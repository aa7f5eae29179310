package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// synthGrid puts the same BT-IO spec on the grid twice — once compiled
// up front via Apps, once as a declarative spec via Specs — across two
// organizations and a degraded scenario, so the sweep itself becomes a
// differential harness for the Specs axis.
func synthGrid(t *testing.T) (Grid, string) {
	t.Helper()
	slow, err := fault.Builtin("slow-disk")
	if err != nil {
		t.Fatal(err)
	}
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}
	spec := synth.BTIOSpec(cfg)
	spec.Name = "btio-synth"
	grid := GridSpec{
		Platforms: []cluster.Config{tinyBase("alpha", 2)},
		Orgs:      []cluster.Organization{cluster.JBOD, cluster.RAID5},
		Char:      quickChar(),
		Scenarios: []fault.Plan{slow},
		Apps: []AppSpec{{Name: "btio-app", New: func() workload.App {
			return synth.MustCompile(synth.BTIOSpec(cfg))
		}}},
		Specs: []*synth.Spec{spec},
	}.Grid()
	return grid, spec.Name
}

// TestSynthSweepDeterminism is the sweep acceptance for the synthetic
// plane: a spec-driven cell runs end to end through the engine —
// healthy and under a fault scenario — with byte-identical reports on
// 1 and 8 workers, and produces exactly the Apps-axis cell's numbers
// in every cell it shares a configuration with.
func TestSynthSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in -short mode")
	}
	grid, synthName := synthGrid(t)
	if len(grid.Apps) != 2 {
		t.Fatalf("grid apps = %d, want 2 (app + spec)", len(grid.Apps))
	}

	type run struct {
		workers int
		json    []byte
		text    []byte
	}
	runs := []*run{{workers: 1}, {workers: 8}}
	for _, r := range runs {
		eng := NewEngine(r.workers)
		rep, err := eng.Run(grid, ByIOTime)
		if err != nil {
			t.Fatalf("run (%d workers): %v", r.workers, err)
		}
		r.json, r.text = reportBytes(t, rep)

		// Differential: per configuration, the synthetic cell must be
		// indistinguishable from the compiled-app one.
		apps := map[string]*Cell{}
		for _, cell := range rep.Cells {
			if cell.App == "btio-app" {
				apps[cell.Config] = cell
			}
		}
		nSynth := 0
		for _, cell := range rep.Cells {
			if cell.App != synthName {
				continue
			}
			nSynth++
			a, ok := apps[cell.Config]
			if !ok {
				t.Fatalf("%d workers: no app cell for config %q", r.workers, cell.Config)
			}
			if cell.IOTime != a.IOTime || cell.ExecTime != a.ExecTime {
				t.Errorf("%d workers: %q spec (io %v, exec %v) != app (io %v, exec %v)",
					r.workers, cell.Config, cell.IOTime, cell.ExecTime, a.IOTime, a.ExecTime)
			}
		}
		// 2 orgs × (healthy + slow-disk) = 4 synth cells, one of them degraded.
		if nSynth != 4 {
			t.Errorf("%d workers: %d synthetic cells, want 4", r.workers, nSynth)
		}
		degraded := 0
		for _, cell := range rep.Cells {
			if cell.App == synthName && cell.Scenario != "" {
				degraded++
				if !strings.HasSuffix(cell.Config, "/"+cell.Scenario) {
					t.Errorf("degraded synth cell %q lacks scenario suffix", cell.Config)
				}
			}
		}
		if degraded != 2 {
			t.Errorf("%d workers: %d degraded synthetic cells, want 2", r.workers, degraded)
		}
	}
	if !bytes.Equal(runs[0].json, runs[1].json) {
		t.Errorf("JSON reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			runs[0].json, runs[1].json)
	}
	if !bytes.Equal(runs[0].text, runs[1].text) {
		t.Errorf("text reports differ between 1 and 8 workers")
	}
}

// TestSynthSweepInvalidSpec: an invalid spec must fail its cells with
// the compiler's structured error, not panic the expansion or the
// worker pool.
func TestSynthSweepInvalidSpec(t *testing.T) {
	bad := &synth.Spec{Name: "bad", Procs: 0}
	grid := GridSpec{
		Platforms: []cluster.Config{tinyBase("alpha", 2)},
		Char:      quickChar(),
		Specs:     []*synth.Spec{bad},
	}.Grid()
	if len(grid.Apps) != 1 {
		t.Fatalf("grid apps = %d, want 1", len(grid.Apps))
	}
	_, err := NewEngine(2).Run(grid, ByIOTime)
	if err == nil {
		t.Fatal("sweep accepted an invalid spec")
	}
	var se *synth.Error
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not wrap the compiler's *synth.Error", err)
	}
}
