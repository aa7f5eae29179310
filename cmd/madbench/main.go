// Command madbench runs the MADbench2 benchmark on a simulated
// cluster and reports per-function times and transfer rates (S_w,
// W_w, W_r, C_r), like the real benchmark does.
//
// Usage:
//
//	madbench [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	         [-procs 16] [-kpix 18] [-bins 8] [-filetype unique|shared]
//	         [-timeline] [-store DIR]
//
// With -store, the run is additionally evaluated against the cluster's
// characterization (looked up in — or computed into — the
// content-addressed store) and the used-percentage table is printed.
package main

import (
	"flag"
	"fmt"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func main() {
	platform := flag.String("platform", "aohyper", "cluster: aohyper or clusterA")
	orgName := flag.String("org", "raid5", "Aohyper device organization")
	procs := flag.Int("procs", 16, "MPI processes (square)")
	kpix := flag.Int("kpix", 18, "KPIX (pixels = KPIX x 1024)")
	bins := flag.Int("bins", 8, "component matrices")
	filetype := flag.String("filetype", "shared", "unique or shared")
	timeline := flag.Bool("timeline", false, "render the trace timeline")
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	org, err := cliutil.ParseOrg(*orgName)
	if err != nil {
		cliutil.Fatal(err)
	}
	build, err := cliutil.ClusterBuilder(*platform, org, 0)
	if err != nil {
		cliutil.Fatal(err)
	}
	c := build()

	ft := madbench.Shared
	if *filetype == "unique" {
		ft = madbench.Unique
	}
	cfg := madbench.Config{
		Procs: *procs, KPix: *kpix, Bins: *bins, FileType: ft, BusyWork: sim.Second,
	}
	spec := synth.MadbenchSpec(cfg)
	app := synth.MustCompile(spec)
	tr := trace.New()
	fmt.Printf("running %s on %s (slice %s per op) ...\n\n",
		app.Name(), c.Cfg.Name, stats.IBytes(madbench.New(cfg).SliceBytes()))
	res, err := app.Run(c, tr)
	if err != nil {
		cliutil.Fatal(err)
	}

	var tb stats.Table
	tb.AddRow("metric", "value")
	tb.AddRow("execution time", res.ExecTime.String())
	tb.AddRow("I/O time", res.IOTime.String())
	for _, k := range []string{"S_w", "W_r", "W_w", "C_r"} {
		tb.AddRow(k+" rate", stats.MBs(res.PhaseRates[k]))
	}
	fmt.Println(tb.String())

	if *timeline {
		fmt.Println(trace.Timeline{Width: 110}.Render(tr.Events()))
	}

	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		sess := core.NewSession(build,
			core.WithStore(st),
			core.WithCharacterizeWorkers(*charWorkers),
			core.WithCharacterizeConfig(cliutil.CharConfig(true, false)))
		ev, err := sess.Evaluate(synth.MustCompile(spec))
		if err != nil {
			cliutil.Fatal(err)
		}
		fmt.Println(core.FormatEvaluation(ev))
		fmt.Println(cliutil.StoreSummary(st))
	}
}
