// Command btio runs the NAS BT-IO benchmark on a simulated cluster
// and reports the paper's measurements: execution time, I/O time,
// throughput, and the traced application characterization.
//
// Usage:
//
//	btio [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	     [-class A|B|C] [-procs 16] [-subtype full|simple] [-timeline]
//	     [-metrics out.json] [-store DIR]
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
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

func main() {
	platform := flag.String("platform", "aohyper", "cluster: aohyper or clusterA")
	orgName := flag.String("org", "raid5", "Aohyper device organization")
	className := flag.String("class", "C", "NPB class: A, B or C")
	procs := flag.Int("procs", 16, "MPI processes (square)")
	subtype := flag.String("subtype", "full", "I/O subtype: full or simple")
	timeline := flag.Bool("timeline", false, "render the Jumpshot-style trace timeline")
	metrics := cliutil.MetricsFlag(flag.CommandLine)
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

	class := btio.ClassC
	switch *className {
	case "A":
		class = btio.ClassA
	case "B":
		class = btio.ClassB
	}
	sub := btio.Full
	if *subtype == "simple" {
		sub = btio.Simple
	}

	spec := synth.BTIOSpec(btio.Config{Class: class, Procs: *procs, Subtype: sub, ComputeScale: 1})
	app := synth.MustCompile(spec)
	tr := trace.New()
	ps := trace.NewPhaseSnapshotter(c.Eng, c.Telemetry, tr, 0)
	fmt.Printf("running %s on %s ...\n\n", app.Name(), c.Cfg.Name)
	res, err := app.Run(c, ps)
	if err != nil {
		cliutil.Fatal(err)
	}

	var tb stats.Table
	tb.AddRow("metric", "value")
	tb.AddRow("execution time", res.ExecTime.String())
	tb.AddRow("I/O time", res.IOTime.String())
	tb.AddRow("write time", res.WriteTime.String())
	tb.AddRow("read time", res.ReadTime.String())
	tb.AddRow("throughput", stats.MBs(res.Throughput()))
	fmt.Println(tb.String())

	fmt.Println(core.FormatProfile(app.Name(), tr.Profile()))

	fmt.Println("Signature (rank 0 phases and weights):")
	for _, s := range tr.Signature(0) {
		fmt.Printf("  %-5s %-10s ops=%-6d bytes=%s weight=%d\n",
			s.Phase.Kind, s.Phase.Mode, s.Phase.Ops, stats.IBytes(s.Phase.Bytes), s.Weight)
	}

	if *timeline {
		fmt.Println()
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

	if *metrics != "" {
		rep := c.TelemetryReport()
		rep.App = app.Name()
		rep.Phases = ps.Finish()
		if err := cliutil.WriteMetrics(*metrics, rep, st); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(telemetry report written to %s)\n", *metrics)
	}
}
