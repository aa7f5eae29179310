package store_test

import (
	"bytes"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/nfs"
	"ioeval/internal/store"
	"ioeval/internal/sweep"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func warmBase(name string, nodes int) cluster.Config {
	return cluster.Config{
		Name:         name,
		ComputeNodes: nodes,
		NodeRAM:      256 * mb,
		NodeDiskCap:  10 * gb,
		NodeDiskRate: 90e6,
		IONodeRAM:    256 * mb,
		IODiskCap:    20 * gb,
		IODiskRate:   100e6,
		Org:          cluster.JBOD,
		StripeUnit:   256 * kb,
		RAID5Disks:   5,
		NFSServer:    nfs.DefaultServerParams(name + "-nfs"),
		NFSClient:    nfs.DefaultClientParams(name + "-nfs"),
	}
}

func warmChar() core.CharacterizeConfig {
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

func warmGrid() sweep.Grid {
	return sweep.GridSpec{
		Platforms: []cluster.Config{warmBase("gamma", 2)},
		Orgs:      []cluster.Organization{cluster.JBOD, cluster.RAID5},
		Char:      warmChar(),
		Apps: []sweep.AppSpec{{Name: "btio-quick", New: func() workload.App {
			return synth.MustCompile(synth.BTIOSpec(btio.Config{
				Class: btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5},
				Procs: 4, Subtype: btio.Full,
			}))
		}}},
	}.Grid()
}

func runGrid(t testing.TB, dir string) (json []byte, engineAux, storeAux map[string]int64) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	eng := sweep.NewEngine(4)
	eng.SetStore(st)
	rep, err := eng.Run(warmGrid(), sweep.ByIOTime)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report: %v", err)
	}
	return buf.Bytes(), eng.Snapshot().Counters.Aux, st.Snapshot().Counters.Aux
}

// TestSweepWarmStart is the acceptance test for the store plane: a
// cold sweep fills the store measuring each configuration once; a warm
// re-run — new engine, new store handle, same directory — performs
// zero characterizations and produces a byte-identical report.
func TestSweepWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in -short mode")
	}
	dir := t.TempDir()

	cold, coldEng, coldStore := runGrid(t, dir)
	if coldEng["characterizations"] != 2 {
		t.Fatalf("cold characterizations = %d, want 2", coldEng["characterizations"])
	}
	if coldStore["misses"] != 2 || coldStore["puts"] != 2 {
		t.Fatalf("cold store counters = %v", coldStore)
	}

	warm, warmEng, warmStore := runGrid(t, dir)
	if warmEng["characterizations"] != 0 {
		t.Fatalf("warm characterizations = %d, want 0 (the store must satisfy them)", warmEng["characterizations"])
	}
	if warmStore["hits"] != 2 || warmStore["misses"] != 0 {
		t.Fatalf("warm store counters = %v", warmStore)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestSessionWarmStart pins the same contract one layer down, through
// core.WithStore directly.
func TestSessionWarmStart(t *testing.T) {
	dir := t.TempDir()
	build := func() *cluster.Cluster { return cluster.New(warmBase("delta", 2)) }

	mk := func() (*core.Characterization, *store.Store) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess := core.NewSession(build, core.WithCharacterizeConfig(warmChar()), core.WithStore(st))
		ch, err := sess.Characterization()
		if err != nil {
			t.Fatal(err)
		}
		return ch, st
	}

	_, coldStore := mk()
	if s := coldStore.Stats(); s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("cold stats = %+v", s)
	}
	_, warmStore := mk()
	if s := warmStore.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm stats = %+v", s)
	}
}

// BenchmarkCharacterizationColdStore measures the store's overhead on
// a first-ever run: full measurement plus encode + write-back.
func BenchmarkCharacterizationColdStore(b *testing.B) {
	build := func() *cluster.Cluster { return cluster.New(warmBase("bench", 2)) }
	for i := 0; i < b.N; i++ {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sess := core.NewSession(build, core.WithCharacterizeConfig(warmChar()), core.WithStore(st))
		if _, err := sess.Characterization(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizationWarmStore measures a warm start: every
// iteration opens a fresh handle on a pre-filled store and reads the
// tables back instead of measuring.
func BenchmarkCharacterizationWarmStore(b *testing.B) {
	build := func() *cluster.Cluster { return cluster.New(warmBase("bench", 2)) }
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	sess := core.NewSession(build, core.WithCharacterizeConfig(warmChar()), core.WithStore(st))
	if _, err := sess.Characterization(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		sess := core.NewSession(build, core.WithCharacterizeConfig(warmChar()), core.WithStore(st))
		if _, err := sess.Characterization(); err != nil {
			b.Fatal(err)
		}
	}
}
