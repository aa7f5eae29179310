// btio-evaluation walks through the paper's Section III/IV study on
// the cluster Aohyper: characterize the three device configurations
// (JBOD, RAID 1, RAID 5), run NAS BT-IO in both subtypes on each, and
// reproduce the used-percentage comparison of Tables III/IV and the
// execution-time picture of Fig. 12.
//
// Class A is used so the walk-through finishes in seconds; switch to
// btio.ClassC for the paper-scale run (the bench harness does).
//
// Run with: go run ./examples/btio-evaluation
package main

import (
	"fmt"
	"log"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/stats"
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

	var usedW, usedR, runsTbl stats.Table
	usedW.AddRow("I/O configuration", "I/O Lib", "NFS", "Local FS", "SUBTYPE")
	usedR.AddRow("I/O configuration", "I/O Lib", "NFS", "Local FS", "SUBTYPE")
	runsTbl.AddRow("config", "subtype", "exec", "I/O time", "throughput")

	for _, org := range []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5} {
		build := func() *cluster.Cluster { return cluster.Aohyper(org) }
		sess := core.NewSession(build, core.WithCharacterizeConfig(charCfg))
		for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
			app := synth.MustCompile(synth.BTIOSpec(btio.Config{Class: btio.ClassA, Procs: 16, Subtype: st, ComputeScale: 1}))
			ev, err := sess.Evaluate(app)
			if err != nil {
				log.Fatal(err)
			}
			usedW.AddRow(org.String(), pct(ev.UsedFor(core.LevelIOLib, core.Write)),
				pct(ev.UsedFor(core.LevelNFS, core.Write)),
				pct(ev.UsedFor(core.LevelLocalFS, core.Write)), st.String())
			usedR.AddRow(org.String(), pct(ev.UsedFor(core.LevelIOLib, core.Read)),
				pct(ev.UsedFor(core.LevelNFS, core.Read)),
				pct(ev.UsedFor(core.LevelLocalFS, core.Read)), st.String())
			res := ev.Result()
			runsTbl.AddRow(org.String(), st.String(),
				fmt.Sprintf("%.1f s", res.ExecTime.Seconds()),
				fmt.Sprintf("%.1f s", res.IOTime.Seconds()),
				stats.MBs(res.Throughput()))
		}
	}

	fmt.Println("% of I/O system use — writing operations (Table III analogue)")
	fmt.Println(usedW.String())
	fmt.Println("% of I/O system use — reading operations (Table IV analogue)")
	fmt.Println(usedR.String())
	fmt.Println("Execution & I/O time (Fig. 12 analogue)")
	fmt.Println(runsTbl.String())
	fmt.Println(`Reading the result like the paper does: the full subtype exploits the
I/O system's capacity (used% near or above 100 at the library level),
while the simple subtype's access pattern — millions of ~KB strided
records — caps it at a small fraction. The full subtype performs
similarly on all three configurations, so choosing among JBOD, RAID 1
and RAID 5 is a question of the availability level the user pays for.`)
}

func pct(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", v)
}
