// Command iomethod runs the paper's full three-phase methodology on a
// simulated cluster: characterize the I/O system at every level of
// the I/O path, analyze the configuration's factors, run an
// application under the tracer and report the used-percentage tables.
//
// Usage:
//
//	iomethod [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	         [-app btio|madbench] [-procs N] [-subtype full|simple]
//	         [-filetype unique|shared] [-quick] [-fault scenario] [-seed N]
//	         [-spans] [-store DIR]
//
// With -fault, the application is evaluated twice — healthy and under
// the named fault scenario — and the used-% tables are reported side
// by side. With -store, the characterization is looked up in (and
// persisted to) the content-addressed store, so repeated runs against
// the same configuration skip phase 1 entirely.
package main

import (
	"flag"
	"fmt"
	"os"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/synth"
)

func main() {
	platform := flag.String("platform", "aohyper", "cluster to simulate: aohyper or clusterA")
	orgName := flag.String("org", "raid5", "Aohyper device organization: jbod, raid1 or raid5")
	appName := flag.String("app", "btio", "application: btio, madbench or flashio")
	procs := flag.Int("procs", 16, "MPI processes (must be a square)")
	subtype := flag.String("subtype", "full", "BT-IO subtype: full or simple")
	filetype := flag.String("filetype", "shared", "MADbench2 filetype: unique or shared")
	quick := flag.Bool("quick", false, "reduced characterization and class A BT-IO (fast demo)")
	utilization := flag.Bool("utilization", false, "print the cluster utilization report after evaluation")
	pfsNodes := flag.Int("pfs", 0, "deploy a PVFS-like parallel FS over N I/O nodes and run against it")
	saveChar := flag.String("save-char", "", "write the characterization to this JSON file")
	loadChar := flag.String("load-char", "", "reuse a characterization from this JSON file (skips phase 1 system side)")
	metrics := cliutil.MetricsFlag(flag.CommandLine)
	faultName := cliutil.FaultFlag(flag.CommandLine)
	seed := cliutil.SeedFlag(flag.CommandLine)
	spans := cliutil.SpansFlag(flag.CommandLine)
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	org, err := cliutil.ParseOrg(*orgName)
	if err != nil {
		cliutil.Fatal(err)
	}
	build, err := cliutil.ClusterBuilder(*platform, org, *pfsNodes)
	if err != nil {
		cliutil.Fatal(err)
	}
	usePFS := *pfsNodes > 0

	fmt.Println("== Phase 2 preview: I/O configuration analysis ==")
	fmt.Println(core.AnalyzeConfiguration(build()))

	fmt.Println("== Phase 1: characterization (system side) ==")
	opts := []core.SessionOption{core.WithCharacterizeWorkers(*charWorkers)}
	plan, err := cliutil.FaultPlan(*faultName, *seed)
	if err != nil {
		cliutil.Fatal(err)
	}
	if plan != nil {
		opts = append(opts, core.WithFaultPlan(*plan))
	}
	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		opts = append(opts, core.WithStore(st))
	}
	if *loadChar != "" {
		f, err := os.Open(*loadChar)
		if err != nil {
			cliutil.Fatal(err)
		}
		ch, err := core.ReadCharacterizationJSON(f)
		_ = f.Close() // read-only; a close error cannot lose data
		if err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(loaded characterization of %s from %s)\n", ch.Config, *loadChar)
		opts = append(opts, core.WithCharacterization(ch))
	} else {
		opts = append(opts, core.WithCharacterizeConfig(cliutil.CharConfig(*quick, usePFS)))
	}
	sess := core.NewSession(build, opts...)
	ch, err := sess.Characterization()
	if err != nil {
		cliutil.Fatal(err)
	}
	if *saveChar != "" {
		if err := cliutil.WriteFileFn(*saveChar, ch.WriteJSON); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(characterization saved to %s)\n", *saveChar)
	}
	for _, level := range core.Levels() {
		fmt.Println(core.FormatPerfTable(ch.Table(level)))
	}

	var app workload.App
	switch *appName {
	case "btio", "madbench":
		variant := *subtype
		if *appName == "madbench" {
			variant = *filetype
		}
		spec, err := cliutil.WorkloadSpec(*appName+"-"+variant, *procs, *quick, usePFS)
		if err != nil {
			cliutil.Fatal(err)
		}
		app = synth.MustCompile(spec)
	case "flashio":
		app = flashio.New(flashio.Config{Procs: *procs, Compute: 5 * sim.Second})
	default:
		cliutil.Fatal(fmt.Errorf("unknown app %q", *appName))
	}

	fmt.Printf("== Phase 1: characterization (application side) + Phase 3: evaluation ==\n")
	fmt.Printf("running %s ...\n\n", app.Name())
	rep, err := sess.Run(app)
	if err != nil {
		cliutil.Fatal(err)
	}
	ev := rep.Evaluation
	fmt.Println(core.FormatProfile(ev.AppName(), ev.Profile()))
	fmt.Println(core.FormatEvaluation(ev))
	if *spans {
		fmt.Println(core.FormatPathReport(ev.PathReport()))
	}
	if rep.Degraded != nil {
		fmt.Printf("== Phase 3 (degraded): evaluation under fault scenario %q ==\n", rep.Scenario)
		fmt.Println(core.FormatEvaluation(rep.Degraded))
		if *spans {
			fmt.Println(core.FormatPathReport(rep.Degraded.PathReport()))
		}
		fmt.Println("Healthy vs degraded:")
		fmt.Println(core.FormatUsedComparison(ev.Used(), rep.Degraded.Used()))
	}
	if *utilization {
		fmt.Println(rep.Utilization)
		if rep.Degraded != nil {
			fmt.Println("Utilization under fault scenario:")
			fmt.Println(rep.DegradedUtilization)
		}
	}
	if *metrics != "" {
		if err := cliutil.WriteMetrics(*metrics, ev.TelemetryReport(), st); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(telemetry report written to %s)\n", *metrics)
	}
	if st != nil {
		fmt.Println(cliutil.StoreSummary(st))
	}
}
