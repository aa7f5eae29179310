// Quickstart: the methodology in ~60 lines.
//
//  1. Build a simulated cluster (the paper's Aohyper, RAID 5).
//  2. Characterize its I/O path (reduced sweep for speed).
//  3. Run an application (NAS BT-IO class A) under the tracer.
//  4. Print the evaluation: where on the I/O path the application
//     sits, and how much of each level's capacity it obtains.
//
// Run with: go run ./examples/quickstart
//
// Warm starts: pass -store DIR and run twice. The first run measures
// the characterization and persists it; the second reads the tables
// back (the store summary line shows "1 hits, 0 misses") and prints
// identical output — Phase 1 survives the process.
//
//	go run ./examples/quickstart -store /tmp/ioeval-store
//	go run ./examples/quickstart -store /tmp/ioeval-store
package main

import (
	"flag"
	"fmt"
	"log"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/store"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

func main() {
	storeDir := flag.String("store", "", "persist characterizations in this directory (warm starts)")
	flag.Parse()

	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }

	// Phase 1 (system): characterize each I/O-path level with a
	// reduced IOzone/IOR sweep.
	cfg := core.CharacterizeConfig{
		FSBlockSizes:   []int64{64 << 10, 1 << 20, 4 << 20},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  512 << 20,
		GlobalFileSize: 512 << 20,
		LibProcs:       4,
		LibBlockSizes:  []int64{4 << 20, 32 << 20},
		LibFileSize:    256 << 20,
	}
	opts := []core.SessionOption{core.WithCharacterizeConfig(cfg)}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatal(err)
		}
		opts = append(opts, core.WithStore(st))
	}
	sess := core.NewSession(build, opts...)
	ch, err := sess.Characterization()
	if err != nil {
		log.Fatal(err)
	}
	for _, level := range core.Levels() {
		fmt.Println(core.FormatPerfTable(ch.Table(level)))
	}

	// Phase 2: what is configurable on this cluster?
	fmt.Println("Configurable factors:")
	fmt.Println(core.AnalyzeConfiguration(build()))

	// Phases 1 (application) + 3: run NAS BT-IO and evaluate it
	// against the characterized tables.
	app := synth.MustCompile(synth.BTIOSpec(btio.Config{Class: btio.ClassA, Procs: 4, Subtype: btio.Full, ComputeScale: 1}))
	ev, err := sess.Evaluate(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.FormatProfile(ev.AppName(), ev.Profile()))
	fmt.Println(core.FormatEvaluation(ev))

	if st != nil {
		s := st.Stats()
		fmt.Printf("store %s: %d hits, %d misses, %d writes\n",
			st.Dir(), s.Hits, s.Misses, s.Puts)
	}
}
