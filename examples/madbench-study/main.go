// madbench-study reproduces the paper's MADbench2 investigation on the
// cluster Aohyper (Section IV-F): run the benchmark with UNIQUE and
// SHARED filetypes on the three device configurations and report the
// per-function transfer rates (Fig. 17) plus the local-filesystem
// used percentages (Table IX).
//
// A reduced KPIX keeps this example quick; the bench harness runs the
// paper's 18 KPIX.
//
// Run with: go run ./examples/madbench-study
package main

import (
	"fmt"
	"log"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func main() {
	charCfg := core.CharacterizeConfig{
		FSBlockSizes:   []int64{256 << 10, 4 << 20, 16 << 20},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  512 << 20,
		GlobalFileSize: 512 << 20,
		LibProcs:       4,
		LibBlockSizes:  []int64{4 << 20, 32 << 20},
		LibFileSize:    256 << 20,
	}

	var rates, used stats.Table
	rates.AddRow("config", "filetype", "S_w", "W_w", "W_r", "C_r")
	used.AddRow("I/O configuration", "W_r", "C_r", "S_w", "W_w", "FILETYPE")

	for _, org := range []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5} {
		build := func() *cluster.Cluster { return cluster.Aohyper(org) }
		sess := core.NewSession(build, core.WithCharacterizeConfig(charCfg))
		ch, err := sess.Characterization()
		if err != nil {
			log.Fatal(err)
		}
		for _, ft := range []madbench.FileType{madbench.Unique, madbench.Shared} {
			cfg := madbench.Config{Procs: 16, KPix: 6, Bins: 8, FileType: ft, BusyWork: sim.Second / 2}
			ev, err := sess.Evaluate(synth.MustCompile(synth.MadbenchSpec(cfg)))
			if err != nil {
				log.Fatal(err)
			}
			pr := ev.Result().PhaseRates
			rates.AddRow(org.String(), ft.String(),
				stats.MBs(pr["S_w"]), stats.MBs(pr["W_w"]), stats.MBs(pr["W_r"]), stats.MBs(pr["C_r"]))

			// Table IX: per-function used % of the local-FS level, at the
			// application's block size, sequential mode (whole-slice ops).
			bs := madbench.New(cfg).SliceBytes()
			lookup := func(op core.OpType) float64 {
				rate, _, ok := ch.Table(core.LevelLocalFS).Lookup(op, bs, core.Local, trace.Sequential)
				if !ok {
					return -1
				}
				return rate
			}
			pcts := func(op core.OpType, measured float64) string {
				char := lookup(op)
				if char <= 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.1f", measured/char*100)
			}
			used.AddRow(org.String(),
				pcts(core.Read, pr["W_r"]), pcts(core.Read, pr["C_r"]),
				pcts(core.Write, pr["S_w"]), pcts(core.Write, pr["W_w"]), ft.String())
		}
	}

	fmt.Println("MADbench2 per-function transfer rates (Fig. 17 analogue)")
	fmt.Println(rates.String())
	fmt.Println("% of use on the local filesystem level (Table IX analogue)")
	fmt.Println(used.String())
	fmt.Println(`As in the paper: MADbench2 moves whole matrix slices per operation, so
it drives the network filesystem at (or beyond) its characterized
capacity; at the local-filesystem level the used fraction falls as the
array gets faster — the application cannot saturate RAID 5's extra
spindles through one Gigabit NFS path. The per-function view shows the
same configuration behaving differently across the S, W and C phases.`)
}
