package sweep

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/nfs"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/synth"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// tinyBase is a small platform whose characterization runs in
// milliseconds, so sweeps over many configurations stay cheap.
func tinyBase(name string, nodes int) cluster.Config {
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

// quickChar keeps the characterization phase minimal.
func quickChar() core.CharacterizeConfig {
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

var quickClass = btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}

func testApps() []AppSpec {
	return []AppSpec{
		{Name: "btio-full", New: func() workload.App {
			return synth.MustCompile(synth.BTIOSpec(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}))
		}},
		{Name: "flashio", New: func() workload.App {
			return flashio.New(flashio.Config{Procs: 4, BlocksPerProc: 8})
		}},
	}
}

// testGrid expands to 8 configurations (2 platforms × 2 organizations
// × 2 I/O-node counts) × 2 workloads — the acceptance grid.
func testGrid() Grid {
	return GridSpec{
		Platforms:  []cluster.Config{tinyBase("alpha", 4), tinyBase("beta", 2)},
		Orgs:       []cluster.Organization{cluster.JBOD, cluster.RAID5},
		PFSIONodes: []int{0, 2},
		Char:       quickChar(),
		Apps:       testApps(),
	}.Grid()
}

func reportBytes(t *testing.T, r *Report) ([]byte, []byte) {
	t.Helper()
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatalf("json: %v", err)
	}
	return js.Bytes(), []byte(r.String())
}

// TestSweepDeterminism is the acceptance check: the same grid on 1
// and 8 workers must produce byte-identical ranked reports (JSON and
// text), and each engine must characterize each unique configuration
// exactly once — asserted via the engine's telemetry counters. Run
// under -race in CI, this also exercises the shared characterization
// cache for data races.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in -short mode")
	}
	grid := testGrid()
	if len(grid.Configs) != 8 || len(grid.Apps) != 2 {
		t.Fatalf("grid = %d configs × %d apps, want 8 × 2", len(grid.Configs), len(grid.Apps))
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

		aux := eng.Snapshot().Counters.Aux
		if aux["characterizations"] != int64(len(grid.Configs)) {
			t.Errorf("%d workers: %d characterizations, want %d (exactly once per unique config)",
				r.workers, aux["characterizations"], len(grid.Configs))
		}
		if aux["evaluations"] != int64(len(grid.Configs)*len(grid.Apps)) {
			t.Errorf("%d workers: %d evaluations, want %d",
				r.workers, aux["evaluations"], len(grid.Configs)*len(grid.Apps))
		}
		if len(rep.Cells) != len(grid.Configs)*len(grid.Apps) {
			t.Fatalf("%d workers: %d cells", r.workers, len(rep.Cells))
		}
		// Span aggregation rides in every cell: the byte-compare below
		// only proves spans deterministic if they are actually there.
		for i, c := range rep.Cells {
			if c.Path == nil || !c.Path.HasSpans {
				t.Fatalf("%d workers: cell %d has no span data; the determinism check would be vacuous", r.workers, i)
			}
			if !c.Path.Conserved {
				t.Errorf("%d workers: cell %d violates span conservation (drift %v)", r.workers, i, c.Path.Drift)
			}
		}
	}
	if !bytes.Equal(runs[0].json, runs[1].json) {
		t.Errorf("JSON reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			runs[0].json, runs[1].json)
	}
	if !bytes.Equal(runs[0].text, runs[1].text) {
		t.Errorf("text reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			runs[0].text, runs[1].text)
	}
}

// TestRankingOrders checks every metric yields a correctly ordered,
// deterministically tie-broken report.
func TestRankingOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in -short mode")
	}
	grid := Grid{
		Configs: []Config{
			{Name: "a/jbod", Build: buildFn(tinyBase("a", 2)), Char: quickChar()},
			{Name: "a/raid5", Build: buildFn(with(tinyBase("a", 2), cluster.RAID5)), Char: quickChar()},
		},
		Apps: testApps()[:1],
	}
	eng := NewEngine(4)
	for _, metric := range []Metric{ByIOTime, ByUsedPct, ByThroughput} {
		rep, err := eng.Run(grid, metric)
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		for i := 1; i < len(rep.Cells); i++ {
			a, b := rep.Cells[i-1], rep.Cells[i]
			if cellLess(metric, b, a) {
				t.Errorf("%v: cells %d/%d out of order: %+v before %+v", metric, i-1, i, a, b)
			}
		}
		if rep.RankedBy != metric.String() {
			t.Errorf("RankedBy = %q, want %q", rep.RankedBy, metric)
		}
		if len(rep.Best) != 1 || rep.Best[0].Config != rep.Cells[0].Config {
			t.Errorf("%v: best = %+v, want top-ranked %q", metric, rep.Best, rep.Cells[0].Config)
		}
	}
}

func buildFn(cfg cluster.Config) func() *cluster.Cluster {
	return func() *cluster.Cluster { return cluster.New(cfg) }
}

func with(cfg cluster.Config, org cluster.Organization) cluster.Config {
	cfg.Org = org
	return cfg
}

// TestSharedFingerprint: configs measuring the same cluster with the
// same parameters carry the same content fingerprint — even under
// different grid names — and share one characterization.
func TestSharedFingerprint(t *testing.T) {
	base := tinyBase("fp", 2)
	grid := Grid{
		Configs: []Config{
			{Name: "fp/one", Build: buildFn(base), Char: quickChar()},
			{Name: "fp/two", Build: buildFn(base), Char: quickChar()},
		},
		Apps: testApps()[1:],
	}
	eng := NewEngine(4)
	if _, err := eng.Run(grid, ByIOTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	aux := eng.Snapshot().Counters.Aux
	if aux["characterizations"] != 1 {
		t.Errorf("characterizations = %d, want 1 (shared fingerprint)", aux["characterizations"])
	}
	if aux["evaluations"] != 2 {
		t.Errorf("evaluations = %d, want 2", aux["evaluations"])
	}
}

// TestCharacterizationSingleFlight: concurrent callers for one
// fingerprint trigger exactly one Characterize; callers for distinct
// fingerprints make progress in parallel (no engine-wide lock across
// the characterize call — a handshake between two Build functions
// would deadlock if characterizations serialized).
func TestCharacterizationSingleFlight(t *testing.T) {
	eng := NewEngine(4)

	var builds atomic.Int64
	base := tinyBase("sf", 2)
	cfg := Config{Name: "sf", Char: quickChar(), Build: func() *cluster.Cluster {
		builds.Add(1)
		return cluster.New(base)
	}}
	var wg sync.WaitGroup
	chs := make([]*core.Characterization, 8)
	for i := 0; i < len(chs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := eng.Characterization(cfg)
			if err != nil {
				t.Errorf("characterize: %v", err)
			}
			chs[i] = ch
		}(i)
	}
	wg.Wait()
	for _, ch := range chs[1:] {
		if ch != chs[0] {
			t.Fatal("concurrent callers saw different characterizations")
		}
	}
	// Characterization builds one cluster per shard-plan unit (the
	// probe doubles as the first unit's cluster: quickChar has two FS
	// block sizes × two filesystem levels + one library point = 5
	// units), and the content fingerprint builds one more probe.
	if got := eng.Snapshot().Counters.Aux["characterizations"]; got != 1 {
		t.Fatalf("characterizations = %d, want 1", got)
	}
	if builds.Load() > 6 {
		t.Fatalf("Build called %d times for one characterization", builds.Load())
	}

	// Distinct fingerprints characterize concurrently: each Build
	// waits for the other side to start, which deadlocks if the
	// engine serializes first-time characterizations.
	started := make(chan string, 2)
	release := make(chan struct{})
	gate := func(name string, base cluster.Config) Config {
		var first atomic.Bool // Build runs concurrently (shard-plan workers)
		return Config{Name: name, Char: quickChar(), Build: func() *cluster.Cluster {
			if first.CompareAndSwap(false, true) {
				started <- name
				<-release
			}
			return cluster.New(base)
		}}
	}
	cfgA := gate("gate-a", tinyBase("ga", 2))
	cfgB := gate("gate-b", tinyBase("gb", 2))
	var wg2 sync.WaitGroup
	for _, c := range []Config{cfgA, cfgB} {
		wg2.Add(1)
		go func(c Config) {
			defer wg2.Done()
			if _, err := eng.Characterization(c); err != nil {
				t.Errorf("characterize %s: %v", c.Name, err)
			}
		}(c)
	}
	// Both first Builds must start before either characterization
	// completes — concurrent progress across configurations.
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		seen[<-started] = true
	}
	if !seen["gate-a"] || !seen["gate-b"] {
		t.Fatalf("both characterizations should be in flight, got %v", seen)
	}
	close(release)
	wg2.Wait()
}

// TestRunErrors: grid validation and cell failures surface as errors.
func TestRunErrors(t *testing.T) {
	eng := NewEngine(2)
	if _, err := eng.Run(Grid{}, ByIOTime); err == nil {
		t.Error("empty grid accepted")
	}
	dup := Grid{
		Configs: []Config{{Name: "x", Build: buildFn(tinyBase("x", 2))}, {Name: "x", Build: buildFn(tinyBase("x", 2))}},
		Apps:    testApps()[:1],
	}
	if _, err := eng.Run(dup, ByIOTime); err == nil {
		t.Error("duplicate config names accepted")
	}
	noBuild := Grid{Configs: []Config{{Name: "nb"}}, Apps: testApps()[:1]}
	if _, err := eng.Run(noBuild, ByIOTime); err == nil {
		t.Error("config without Build accepted")
	}
}

func TestParseMetric(t *testing.T) {
	for _, m := range []Metric{ByIOTime, ByUsedPct, ByThroughput} {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMetric("nope"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func ExampleGridSpec_Grid() {
	grid := GridSpec{
		Platforms:  []cluster.Config{tinyBase("demo", 2)},
		Orgs:       []cluster.Organization{cluster.JBOD, cluster.RAID1},
		PFSIONodes: []int{0, 2},
	}.Grid()
	for _, c := range grid.Configs {
		fmt.Println(c.Name)
	}
	// Output:
	// demo/JBOD
	// demo/JBOD/pfs-2
	// demo/RAID1
	// demo/RAID1/pfs-2
}
