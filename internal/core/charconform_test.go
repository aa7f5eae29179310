// Differential conformance suite for the characterization shard plan
// (DESIGN.md §14): the full Characterization — merged tables, the
// telemetry report of an evaluation against them, and the store entry
// written for them — must be byte-identical at every worker count.
// External test package so the real on-disk store can back the store
// leg (internal/store imports core). Run under -race in CI: the
// conformance claim covers the parallel executor's memory discipline,
// not just its output.
package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fault"
	"ioeval/internal/nfs"
	"ioeval/internal/sim"
	"ioeval/internal/store"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// conformCluster mirrors the tiny golden fixture cluster: small enough
// that three worker counts characterize in well under a second each.
func conformCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Name:         "conform",
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
		NFSServer:    nfs.DefaultServerParams("conform-nfs"),
		NFSClient:    nfs.DefaultClientParams("conform-nfs"),
	})
}

func conformCharCfg() core.CharacterizeConfig {
	return core.CharacterizeConfig{
		FSBlockSizes:   []int64{64 * kb, mb, 4 * mb},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead},
		LocalFileSize:  64 * mb,
		GlobalFileSize: 64 * mb,
		LibProcs:       2,
		LibBlockSizes:  []int64{4 * mb, 16 * mb},
		LibTransfer:    256 * kb,
		LibFileSize:    16 * mb,
		RandomOps:      128,
	}
}

// conformOutputs characterizes with n workers against a fresh store
// directory and returns every byte surface the conformance claim
// covers: the characterization JSON, the telemetry report of one
// evaluation against it, and the store entry file (name + content).
func conformOutputs(t *testing.T, cfg core.CharacterizeConfig, workers int) (char, telem, entry []byte, entryName string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	sess := core.NewSession(conformCluster,
		core.WithCharacterizeConfig(cfg),
		core.WithCharacterizeWorkers(workers),
		core.WithStore(st))
	ch, err := sess.Characterization()
	if err != nil {
		t.Fatalf("characterize (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		t.Fatalf("encode characterization: %v", err)
	}
	char = append([]byte(nil), buf.Bytes()...)

	quick := btio.Class{Name: "Q", N: 64, Steps: 5, WriteInterval: 5}
	ev, err := sess.Evaluate(synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quick, Procs: 4, Subtype: btio.Full})))
	if err != nil {
		t.Fatalf("evaluate (workers=%d): %v", workers, err)
	}
	buf.Reset()
	if err := ev.TelemetryReport().WriteJSON(&buf); err != nil {
		t.Fatalf("encode telemetry: %v", err)
	}
	telem = append([]byte(nil), buf.Bytes()...)

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries = %v (err %v), want exactly one", entries, err)
	}
	entry, err = os.ReadFile(entries[0])
	if err != nil {
		t.Fatalf("read store entry: %v", err)
	}
	return char, telem, entry, filepath.Base(entries[0])
}

// TestCharWorkerConformance: workers = 1 is the sequential oracle;
// 4 and 8 must reproduce all three byte surfaces exactly, and land
// under the same content fingerprint (worker count must never leak
// into store keys — warm parallel runs must hit entries written by
// sequential ones and vice versa).
func TestCharWorkerConformance(t *testing.T) {
	cfg := conformCharCfg()
	char1, telem1, entry1, name1 := conformOutputs(t, cfg, 1)
	for _, workers := range []int{4, 8} {
		char, telem, entry, name := conformOutputs(t, cfg, workers)
		if !bytes.Equal(char, char1) {
			t.Errorf("workers=%d: characterization bytes differ from sequential", workers)
		}
		if !bytes.Equal(telem, telem1) {
			t.Errorf("workers=%d: telemetry report bytes differ from sequential", workers)
		}
		if !bytes.Equal(entry, entry1) {
			t.Errorf("workers=%d: store entry bytes differ from sequential", workers)
		}
		if name != name1 {
			t.Errorf("workers=%d: store entry name %s, want %s (fingerprint drift)", workers, name, name1)
		}
	}
}

// TestCharWorkerConformanceFaulted: with a characterization-side fault
// plan the shard plan degrades to one unit per level (fault timelines
// anchor at cluster birth), and the degraded tables must stay byte-
// identical across worker counts too.
func TestCharWorkerConformanceFaulted(t *testing.T) {
	plan, err := fault.Builtin("nfs-stall")
	if err != nil {
		t.Fatal(err)
	}
	plan.Events[0].At = 100 * sim.Millisecond
	cfg := conformCharCfg()
	cfg.Fault = &plan

	char1, telem1, entry1, _ := conformOutputs(t, cfg, 1)
	char4, telem4, entry4, _ := conformOutputs(t, cfg, 4)
	if !bytes.Equal(char4, char1) {
		t.Error("faulted characterization bytes differ between workers=1 and workers=4")
	}
	if !bytes.Equal(telem4, telem1) {
		t.Error("faulted telemetry bytes differ between workers=1 and workers=4")
	}
	if !bytes.Equal(entry4, entry1) {
		t.Error("faulted store entry bytes differ between workers=1 and workers=4")
	}
}
