package cliutil

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/workload/synth"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",,", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{"jbod, raid1,raid5", []string{"jbod", "raid1", "raid5"}},
	}
	for _, tc := range cases {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseOrg(t *testing.T) {
	for name, want := range map[string]cluster.Organization{
		"jbod": cluster.JBOD, "raid1": cluster.RAID1, "raid5": cluster.RAID5,
	} {
		got, err := ParseOrg(name)
		if err != nil || got != want {
			t.Errorf("ParseOrg(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseOrg("raid6"); err == nil {
		t.Error("ParseOrg accepted an unknown organization")
	}
}

func TestPlatformConfig(t *testing.T) {
	for _, name := range []string{"aohyper", "clusterA"} {
		cfg, err := PlatformConfig(name)
		if err != nil {
			t.Fatalf("PlatformConfig(%q): %v", name, err)
		}
		if cfg.ComputeNodes <= 0 {
			t.Errorf("PlatformConfig(%q): no compute nodes", name)
		}
	}
	if _, err := PlatformConfig("beowulf"); err == nil {
		t.Error("PlatformConfig accepted an unknown platform")
	}
}

func TestClusterBuilder(t *testing.T) {
	build, err := ClusterBuilder("aohyper", cluster.RAID5, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := build()
	if c.Cfg.Org != cluster.RAID5 || c.Cfg.PFSIONodes != 0 {
		t.Errorf("aohyper cluster: org %v, pfs %d", c.Cfg.Org, c.Cfg.PFSIONodes)
	}
	if c2 := build(); c2 == c {
		t.Error("builder returned the same cluster twice (must be fresh per call)")
	}

	build, err = ClusterBuilder("clusterA", cluster.JBOD, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c := build(); c.Cfg.PFSIONodes != 2 {
		t.Errorf("pfsNodes not applied: %d", c.Cfg.PFSIONodes)
	}

	if _, err := ClusterBuilder("beowulf", cluster.JBOD, 0); err == nil {
		t.Error("ClusterBuilder accepted an unknown platform")
	}
}

func TestCharConfig(t *testing.T) {
	full := CharConfig(false, false)
	if !reflect.DeepEqual(full.FSBlockSizes, bench.DefaultBlockSizes()) {
		t.Error("full preset lost the paper block-size sweep")
	}
	if full.UsePFS {
		t.Error("UsePFS set without request")
	}

	quick := CharConfig(true, true)
	if !quick.UsePFS {
		t.Error("UsePFS not applied")
	}
	if len(quick.FSBlockSizes) >= len(full.FSBlockSizes) {
		t.Error("quick preset does not reduce the FS sweep")
	}
	if quick.LocalFileSize == 0 || quick.LocalFileSize >= 2<<30 {
		t.Errorf("quick LocalFileSize = %d, want small and explicit", quick.LocalFileSize)
	}
}

// TestWorkloadSpec pins the CLIs' name→spec table: the paper and quick
// sizes, the subtype/filetype variants, the PFS mount and the modeled
// computation.
func TestWorkloadSpec(t *testing.T) {
	cases := []struct {
		name         string
		quick, pfs   bool
		want, mount  string
		collectiveIO bool
	}{
		{"btio-full", false, false, "NAS BT-IO class C full (4 procs)", "nfs", true},
		{"btio-simple", true, false, "NAS BT-IO class A simple (4 procs)", "nfs", false},
		{"btio-full", true, true, "NAS BT-IO class A full (4 procs)", "pfs", true},
		{"madbench-shared", false, true, "MADbench2 SHARED (4 procs, 18 KPIX, 8 bins)", "nfs", false},
		{"madbench-unique", true, false, "MADbench2 UNIQUE (4 procs, 4 KPIX, 8 bins)", "nfs", false},
	}
	for _, tc := range cases {
		spec, err := WorkloadSpec(tc.name, 4, tc.quick, tc.pfs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.Name != tc.want || spec.Procs != 4 {
			t.Errorf("%s quick=%v: spec (%q, %d procs), want (%q, 4)", tc.name, tc.quick, spec.Name, spec.Procs, tc.want)
		}
		if f := spec.Files[0]; f.Mount != tc.mount || f.CollectiveBuffering != tc.collectiveIO {
			t.Errorf("%s pfs=%v: file %+v, want mount %q, collective buffering %v", tc.name, tc.pfs, f, tc.mount, tc.collectiveIO)
		}
		// The modeled computation is on: BT-IO's dump phase and
		// MADbench2's S phase both open with a compute step.
		if op := spec.Phases[0].Steps[0].Op; op != synth.OpCompute {
			t.Errorf("%s: first step %v, want compute", tc.name, op)
		}
	}
	if _, err := WorkloadSpec("flashio", 4, true, false); err == nil || !strings.Contains(err.Error(), "btio-full") {
		t.Errorf("unknown workload: err = %v, want one listing the built-ins", err)
	}
}

// TestFlagRegistration drives every shared flag helper through a real
// FlagSet: canonical names, defaults, and parsed values.
func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	faultName := FaultFlag(fs)
	seed := SeedFlag(fs)
	spans := SpansFlag(fs)
	metrics := MetricsFlag(fs)
	storeDir := StoreFlag(fs)
	charWorkers := CharWorkersFlag(fs)

	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *faultName != "" || *seed != 0 || *spans || *metrics != "" || *storeDir != "" {
		t.Error("non-zero defaults on shared flags")
	}
	if *charWorkers != 0 {
		t.Errorf("-char-workers default = %d, want 0 (all CPUs)", *charWorkers)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	faultName = FaultFlag(fs)
	seed = SeedFlag(fs)
	spans = SpansFlag(fs)
	metrics = MetricsFlag(fs)
	storeDir = StoreFlag(fs)
	charWorkers = CharWorkersFlag(fs)
	err := fs.Parse([]string{
		"-fault", "disk-fail", "-seed", "42", "-spans",
		"-metrics", "m.json", "-store", "/tmp/cs", "-char-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if *faultName != "disk-fail" || *seed != 42 || !*spans ||
		*metrics != "m.json" || *storeDir != "/tmp/cs" || *charWorkers != 4 {
		t.Errorf("parsed values: fault=%q seed=%d spans=%v metrics=%q store=%q char-workers=%d",
			*faultName, *seed, *spans, *metrics, *storeDir, *charWorkers)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	list := FaultListFlag(fs)
	if err := fs.Parse([]string{"-fault", "none,disk-fail"}); err != nil {
		t.Fatal(err)
	}
	if got := SplitList(*list); !reflect.DeepEqual(got, []string{"none", "disk-fail"}) {
		t.Errorf("fault list = %v", got)
	}
}

func TestFaultPlan(t *testing.T) {
	if plan, err := FaultPlan("", 99); plan != nil || err != nil {
		t.Errorf("empty name: plan=%v err=%v, want nil,nil", plan, err)
	}
	if _, err := FaultPlan("no-such-fault", 0); err == nil {
		t.Error("unknown scenario accepted")
	}
	plan, err := FaultPlan("disk-fail", 0)
	if err != nil || plan == nil {
		t.Fatalf("builtin: plan=%v err=%v", plan, err)
	}
	kept := plan.Seed
	override, err := FaultPlan("disk-fail", 1234)
	if err != nil {
		t.Fatal(err)
	}
	if override.Seed != 1234 {
		t.Errorf("seed override not applied: %d", override.Seed)
	}
	if plan.Seed != kept {
		t.Error("seed override mutated the earlier plan")
	}
}

func TestOpenStore(t *testing.T) {
	st, err := OpenStore("")
	if st != nil || err != nil {
		t.Errorf("OpenStore(\"\") = %v, %v, want nil,nil", st, err)
	}
	st, err = OpenStore(t.TempDir())
	if err != nil || st == nil {
		t.Fatalf("OpenStore(tempdir): %v, %v", st, err)
	}
	if !strings.Contains(StoreSummary(st), "store ") {
		t.Error("StoreSummary missing prefix")
	}
}

func TestWriteFileFn(t *testing.T) {
	path := t.TempDir() + "/out.txt"
	if err := WriteFileFn(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileFn(path, func(io.Writer) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Errorf("write error not surfaced: %v", err)
	}
}
