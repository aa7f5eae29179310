// prediction demonstrates the paper's future-work goal, implemented
// in core: build a functional I/O model of an application from one
// traced run (its phase signature), then *predict* its I/O time on
// other characterized configurations and rank them — without running
// the application there. The prediction is validated against an
// actual run on the selected configuration.
//
// Run with: go run ./examples/prediction
package main

import (
	"fmt"
	"log"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

func main() {
	charCfg := core.CharacterizeConfig{
		FSBlockSizes:   []int64{64 << 10, 1 << 20, 4 << 20},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead},
		LocalFileSize:  512 << 20,
		GlobalFileSize: 512 << 20,
		LibProcs:       4,
		LibBlockSizes:  []int64{1 << 20, 16 << 20},
		LibFileSize:    256 << 20,
		RandomOps:      1024,
	}

	// Characterize the three candidate configurations.
	orgs := []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5}
	chs := make([]*core.Characterization, 0, len(orgs))
	builders := map[string]func() *cluster.Cluster{}
	for _, org := range orgs {
		org := org
		build := func() *cluster.Cluster { return cluster.Aohyper(org) }
		sess := core.NewSession(build, core.WithCharacterizeConfig(charCfg))
		ch, err := sess.Characterization()
		if err != nil {
			log.Fatal(err)
		}
		chs = append(chs, ch)
		builders[ch.Config] = build
	}

	// Trace the application ONCE (on the first configuration) and
	// build its I/O model from the signature.
	app := synth.MustCompile(synth.BTIOSpec(btio.Config{Class: btio.ClassA, Procs: 16, Subtype: btio.Full, ComputeScale: 1}))
	ev, err := core.NewSession(builders[chs[0].Config], core.WithCharacterization(chs[0])).Evaluate(app)
	if err != nil {
		log.Fatal(err)
	}
	model := core.BuildModel(app.Name(), ev.Trace(), app.Procs())
	fmt.Printf("model built from one traced run on %s (%d phase patterns)\n\n",
		chs[0].Config, len(model.Phases))

	// Predict and rank all configurations.
	ranked := core.SelectConfiguration(model, chs)
	fmt.Println("Configurations ranked by predicted I/O time:")
	for i, pred := range ranked {
		fmt.Printf("  %d. %-16s predicted I/O time %v\n", i+1, pred.Config, pred.IOTime)
	}
	fmt.Println()
	fmt.Println(core.FormatPrediction(ranked[0]))

	// Validate: actually run on the selected configuration.
	best := ranked[0]
	var bestCh *core.Characterization
	for _, ch := range chs {
		if ch.Config == best.Config {
			bestCh = ch
		}
	}
	actual, err := core.NewSession(builders[best.Config], core.WithCharacterization(bestCh)).Evaluate(app)
	if err != nil {
		log.Fatal(err)
	}
	ratio := float64(best.IOTime) / float64(actual.Result().IOTime)
	fmt.Printf("\nvalidation on %s: predicted %v vs measured %v (ratio %.2f)\n",
		best.Config, best.IOTime, actual.Result().IOTime, ratio)
	fmt.Println(`The model only knows the characterized rate tables, so it cannot see
cache wins (used% > 100) — predictions are conservative. Its value is
the *ranking*: selecting the configuration before committing to it,
which is exactly the methodology's stated purpose.`)
}
