// Command iosweep fans the paper's three-phase methodology out over a
// grid of candidate I/O configurations and ranks the results: every
// (platform × device organization × I/O-node count) cell is
// characterized once, every workload is evaluated on every cell on a
// bounded worker pool, and the ranked report recommends the best
// configuration per application.
//
// Usage:
//
//	iosweep [-platforms aohyper,clusterA] [-orgs jbod,raid1,raid5]
//	        [-pfs 0,2,4] [-apps btio-full,btio-simple,madbench-shared,madbench-unique,flashio]
//	        [-procs N] [-workers N] [-rank io-time|used-pct|throughput]
//	        [-fault none,disk-fail,...] [-seed N] [-quick] [-json FILE]
//	        [-store DIR]
//
// -fault adds a fault-scenario axis: each named scenario adds a
// degraded variant of every cell ("none" is the healthy run), so the
// ranking shows how each configuration holds up under failure.
// -store persists characterizations across runs: a warm re-run of
// the same grid performs zero characterizations and produces a
// byte-identical report.
package main

import (
	"flag"
	"fmt"
	"strconv"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/fault"
	"ioeval/internal/sim"
	"ioeval/internal/sweep"
	"ioeval/internal/workload"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/synth"
)

func main() {
	platforms := flag.String("platforms", "aohyper", "comma-separated platforms: aohyper, clusterA")
	orgs := flag.String("orgs", "jbod,raid1,raid5", "comma-separated device organizations")
	pfs := flag.String("pfs", "0", "comma-separated I/O-node counts (0 = NFS path, n > 0 = parallel FS over n I/O nodes)")
	apps := flag.String("apps", "btio-full,btio-simple", "comma-separated workloads: btio-full, btio-simple, madbench-shared, madbench-unique, flashio")
	procs := flag.Int("procs", 16, "MPI processes per workload (btio needs a square)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	rankName := flag.String("rank", "io-time", "ranking metric: io-time, used-pct or throughput")
	quick := flag.Bool("quick", false, "reduced characterization and class A BT-IO (fast demo)")
	jsonOut := flag.String("json", "", "write the ranked report to this JSON file")
	faults := cliutil.FaultListFlag(flag.CommandLine)
	seed := cliutil.SeedFlag(flag.CommandLine)
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	rank, err := sweep.ParseMetric(*rankName)
	if err != nil {
		cliutil.Fatal(err)
	}
	spec := sweep.GridSpec{Char: cliutil.CharConfig(*quick, false)}
	for _, p := range cliutil.SplitList(*platforms) {
		cfg, err := cliutil.PlatformConfig(p)
		if err != nil {
			cliutil.Fatal(err)
		}
		spec.Platforms = append(spec.Platforms, cfg)
	}
	for _, o := range cliutil.SplitList(*orgs) {
		org, err := cliutil.ParseOrg(o)
		if err != nil {
			cliutil.Fatal(err)
		}
		spec.Orgs = append(spec.Orgs, org)
	}
	for _, s := range cliutil.SplitList(*pfs) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			cliutil.Fatal(fmt.Errorf("bad -pfs entry %q", s))
		}
		spec.PFSIONodes = append(spec.PFSIONodes, n)
	}
	for _, a := range cliutil.SplitList(*apps) {
		app, err := appSpec(a, *procs, *quick)
		if err != nil {
			cliutil.Fatal(err)
		}
		spec.Apps = append(spec.Apps, app)
	}
	for _, f := range cliutil.SplitList(*faults) {
		if f == "none" {
			spec.Scenarios = append(spec.Scenarios, fault.Plan{})
			continue
		}
		plan, err := cliutil.FaultPlan(f, *seed)
		if err != nil {
			cliutil.Fatal(err)
		}
		spec.Scenarios = append(spec.Scenarios, *plan)
	}

	grid := spec.Grid()
	eng := sweep.NewEngine(*workers)
	eng.SetCharWorkers(*charWorkers)
	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		eng.SetStore(st)
	}
	fmt.Printf("sweeping %d configurations × %d workloads on %d workers ...\n",
		len(grid.Configs), len(spec.Apps), eng.Workers())
	rep, err := eng.Run(grid, rank)
	if err != nil {
		cliutil.Fatal(err)
	}
	fmt.Println(rep)
	snap := eng.Snapshot()
	fmt.Printf("engine: %d characterizations (%d cache hits), %d evaluations (%d cache hits)\n",
		snap.Counters.Aux["characterizations"], snap.Counters.Aux["char_cache_hits"],
		snap.Counters.Aux["evaluations"], snap.Counters.Aux["eval_cache_hits"])
	if st != nil {
		fmt.Println(cliutil.StoreSummary(st))
	}
	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(report written to %s)\n", *jsonOut)
	}
}

func appSpec(name string, procs int, quick bool) (sweep.AppSpec, error) {
	if name == "flashio" {
		return sweep.AppSpec{Name: name, New: func() workload.App {
			return flashio.New(flashio.Config{Procs: procs, Compute: 5 * sim.Second})
		}}, nil
	}
	spec, err := cliutil.WorkloadSpec(name, procs, quick, false)
	if err != nil {
		return sweep.AppSpec{}, err
	}
	return sweep.AppSpec{Name: name, New: func() workload.App { return synth.MustCompile(spec) }}, nil
}
