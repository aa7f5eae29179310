package experiments

import (
	"fmt"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/ioreq"
	"ioeval/internal/mpiio"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// The ablations quantify the design factors DESIGN.md calls out; they
// are not paper artifacts but support the configuration-analysis
// phase with sensitivity data.

const mb = int64(1) << 20

// runBTIO runs BT-IO on c, panicking on error like the other ablations.
func runBTIO(c *cluster.Cluster, cfg btio.Config) workload.Result {
	res, err := synth.MustCompile(synth.BTIOSpec(cfg)).Run(c, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// AblationCollectiveBuffering compares independent vs two-phase
// collective I/O at small transfer sizes (IOR, 64 KB transfers).
func AblationCollectiveBuffering() Artifact {
	var tb stats.Table
	tb.AddRow("mode", "write", "read")
	for _, coll := range []bool{false, true} {
		c := cluster.Aohyper(cluster.RAID5)
		res, err := bench.RunIOR(c, bench.IORConfig{
			Procs: 8, FileSize: 8 * 32 * mb, BlockSizes: []int64{32 * mb},
			TransferSize: 64 << 10, Collective: coll,
		})
		if err != nil {
			panic(err)
		}
		name := "independent"
		if coll {
			name = "collective (two-phase)"
		}
		tb.AddRow(name, stats.MBs(res[0].WriteRate), stats.MBs(res[0].ReadRate))
	}
	return Artifact{ID: "abl-cb", Title: "Ablation: collective buffering (IOR, 64 KB transfers)", Text: tb.String()}
}

// AblationSharedNetwork compares the dedicated-data-network Aohyper
// against a variant where storage and MPI traffic share one GigE.
func AblationSharedNetwork() Artifact {
	var tb stats.Table
	tb.AddRow("network", "exec time", "I/O time")
	for _, separate := range []bool{true, false} {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.SeparateDataNet = separate
		c := cluster.New(cfg)
		res := runBTIO(c, btio.Config{
			Class: btio.Class{Name: "Q", N: 102, Steps: 40, WriteInterval: 5, ComputeTotal: 100 * sim.Second},
			Procs: 16, Subtype: btio.Full, ComputeScale: 1,
		})
		name := "shared"
		if separate {
			name = "dedicated data net"
		}
		tb.AddRow(name, fmt.Sprintf("%.1f s", res.ExecTime.Seconds()),
			fmt.Sprintf("%.1f s", res.IOTime.Seconds()))
	}
	return Artifact{ID: "abl-net", Title: "Ablation: dedicated vs shared data network (BT-IO full)", Text: tb.String()}
}

// AblationCachePolicy compares write-back vs write-through page
// caches on the I/O node (IOzone sequential writes).
func AblationCachePolicy() Artifact {
	var tb stats.Table
	tb.AddRow("policy", "block", "write rate")
	for _, wt := range []bool{false, true} {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.WriteThrough = wt
		c := cluster.New(cfg)
		results, err := bench.RunIOzone(c.Eng, c.ServerFS, bench.IOzoneConfig{
			FileSize: 1 << 30, BlockSizes: []int64{64 << 10, 4 * mb}, Modes: []bench.Mode{bench.SeqWrite},
		})
		if err != nil {
			panic(err)
		}
		name := "write-back"
		if wt {
			name = "write-through"
		}
		for _, r := range results {
			tb.AddRow(name, stats.IBytes(r.BlockSize), stats.MBs(r.Rate))
		}
	}
	return Artifact{ID: "abl-cache", Title: "Ablation: page-cache write policy (IOzone on I/O node)", Text: tb.String()}
}

// AblationStripeUnit sweeps the RAID 5 stripe unit.
func AblationStripeUnit() Artifact {
	var tb stats.Table
	tb.AddRow("stripe unit", "seq write", "seq read")
	for _, su := range []int64{64 << 10, 256 << 10, 1 << 20} {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.StripeUnit = su
		c := cluster.New(cfg)
		results, err := bench.RunIOzone(c.Eng, c.ServerFS, bench.IOzoneConfig{
			FileSize: 2 << 30, BlockSizes: []int64{4 * mb},
			Modes:       []bench.Mode{bench.SeqWrite, bench.SeqRead},
			BetweenRuns: func(p *sim.Proc) { c.IOCache.DropCaches(ioreq.Meta(p)) },
		})
		if err != nil {
			panic(err)
		}
		var w, r string
		for _, res := range results {
			if res.Mode == bench.SeqWrite {
				w = stats.MBs(res.Rate)
			} else {
				r = stats.MBs(res.Rate)
			}
		}
		tb.AddRow(stats.IBytes(su), w, r)
	}
	return Artifact{ID: "abl-stripe", Title: "Ablation: RAID 5 stripe unit (IOzone local, 4 MB blocks)", Text: tb.String()}
}

// AblationNFSTransferSize sweeps the NFS rsize/wsize mount options.
func AblationNFSTransferSize() Artifact {
	var tb stats.Table
	tb.AddRow("rsize/wsize", "seq write", "seq read")
	for _, sz := range []int64{32 << 10, 256 << 10, 1 << 20} {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.NFSClient.RSize, cfg.NFSClient.WSize = sz, sz
		c := cluster.New(cfg)
		results, err := bench.RunIOzone(c.Eng, c.Nodes[0].NFS, bench.IOzoneConfig{
			FileSize: 1 << 30, BlockSizes: []int64{4 * mb},
			Modes: []bench.Mode{bench.SeqWrite, bench.SeqRead},
		})
		if err != nil {
			panic(err)
		}
		var w, r string
		for _, res := range results {
			if res.Mode == bench.SeqWrite {
				w = stats.MBs(res.Rate)
			} else {
				r = stats.MBs(res.Rate)
			}
		}
		tb.AddRow(stats.IBytes(sz), w, r)
	}
	return Artifact{ID: "abl-nfs", Title: "Ablation: NFS rsize/wsize (IOzone over NFS)", Text: tb.String()}
}

// AblationIONodes compares the single-NFS-node architecture against
// a PVFS-like parallel filesystem striped over 1, 2 and 4 I/O nodes
// for both BT-IO subtypes — the "number and placement of I/O nodes"
// factor of the configuration-analysis phase, explored on the
// simulator as the paper's future work proposes (via SIMCAN there).
func AblationIONodes() Artifact {
	var tb stats.Table
	tb.AddRow("storage", "subtype", "I/O time")
	quickClass := btio.Class{Name: "Q", N: 102, Steps: 40, WriteInterval: 5}
	run := func(label string, pfsNodes int, st btio.Subtype) {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.PFSIONodes = pfsNodes
		c := cluster.New(cfg)
		res := runBTIO(c, btio.Config{Class: quickClass, Procs: 16, Subtype: st, UsePFS: pfsNodes > 0})
		tb.AddRow(label, st.String(), fmt.Sprintf("%.1f s", res.IOTime.Seconds()))
	}
	for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
		run("NFS (1 I/O node)", 0, st)
		for _, n := range []int{1, 2, 4} {
			run(fmt.Sprintf("PFS (%d I/O nodes)", n), n, st)
		}
	}
	return Artifact{ID: "abl-ionodes", Title: "Ablation: number of I/O nodes (NFS vs PVFS-like striping, BT-IO)", Text: tb.String()}
}

// AblationAggregators sweeps the number of two-phase aggregators
// (cb_nodes) for a collective BT-IO write workload.
func AblationAggregators() Artifact {
	var tb stats.Table
	tb.AddRow("cb_nodes", "I/O time")
	for _, n := range []int{1, 2, 4, 8} {
		c := cluster.Aohyper(cluster.RAID5)
		hints := mpiio.DefaultHints()
		hints.CBNodes = n
		res := runBTIO(c, btio.Config{
			Class: btio.Class{Name: "Q", N: 102, Steps: 40, WriteInterval: 5},
			Procs: 16, Subtype: btio.Full, Hints: &hints,
		})
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f s", res.IOTime.Seconds()))
	}
	return Artifact{ID: "abl-agg", Title: "Ablation: two-phase aggregator count (BT-IO full)", Text: tb.String()}
}

// AblationDegradedRAID5 quantifies the price of running a RAID 5
// exposed after a member failure: sequential rates on the I/O node's
// local filesystem, healthy vs degraded (reconstruction reads).
func AblationDegradedRAID5() Artifact {
	var tb stats.Table
	tb.AddRow("state", "seq write", "seq read")
	for _, degraded := range []bool{false, true} {
		c := cluster.Aohyper(cluster.RAID5)
		if degraded {
			c.Array.(*raid.Array).Fail(0)
		}
		results, err := bench.RunIOzone(c.Eng, c.ServerFS, bench.IOzoneConfig{
			FileSize: 2 << 30, BlockSizes: []int64{4 * mb},
			Modes:       []bench.Mode{bench.SeqWrite, bench.SeqRead},
			BetweenRuns: func(p *sim.Proc) { c.IOCache.DropCaches(ioreq.Meta(p)) },
		})
		if err != nil {
			panic(err)
		}
		name := "healthy"
		if degraded {
			name = "degraded (1 failed member)"
		}
		var w, r string
		for _, res := range results {
			if res.Mode == bench.SeqWrite {
				w = stats.MBs(res.Rate)
			} else {
				r = stats.MBs(res.Rate)
			}
		}
		tb.AddRow(name, w, r)
	}
	return Artifact{ID: "abl-degraded", Title: "Ablation: degraded RAID 5 (IOzone local, 4 MB blocks)", Text: tb.String()}
}

// AblationSyncExport contrasts the NFS export mode: the Linux default
// `sync` (a stable commit per application write) against `async`, for
// the small-record workload that is most exposed to it (BT-IO simple).
func AblationSyncExport() Artifact {
	var tb stats.Table
	tb.AddRow("export", "I/O time", "write time")
	quickClass := btio.Class{Name: "Q", N: 102, Steps: 40, WriteInterval: 5}
	for _, syncExport := range []bool{true, false} {
		cfg := cluster.Aohyper(cluster.RAID5).Cfg
		cfg.NFSServer.SyncExport = syncExport
		c := cluster.New(cfg)
		res := runBTIO(c, btio.Config{Class: quickClass, Procs: 16, Subtype: btio.Simple})
		name := "async"
		if syncExport {
			name = "sync (default)"
		}
		tb.AddRow(name, fmt.Sprintf("%.1f s", res.IOTime.Seconds()),
			fmt.Sprintf("%.1f s", res.WriteTime.Seconds()))
	}
	return Artifact{ID: "abl-sync", Title: "Ablation: NFS sync vs async export (BT-IO simple)", Text: tb.String()}
}
