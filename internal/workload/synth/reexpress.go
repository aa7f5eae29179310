package synth

import (
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
)

// BTIOSpec expresses a BT-IO configuration in the DSL; it is the only
// runnable definition of BT-IO. It derives the per-rank access
// geometry from the diagonal multi-partitioning (btio.Decomposition).
// The conformance tests pin its traces, Result and reports against
// goldens recorded from the original hand-coded benchmark.
func BTIOSpec(cfg btio.Config) *Spec {
	app := btio.New(cfg)
	c := app.Config()
	np := c.Procs
	n := int64(c.Class.N)
	const bpp = btio.BytesPerPoint

	mount := "nfs"
	if c.UsePFS {
		mount = "pfs"
	}
	cb := c.Subtype == btio.Full
	cbNodes, cbBuf := 0, int64(0)
	if c.Hints != nil {
		cb, cbNodes, cbBuf = c.Hints.CollectiveBuffering, c.Hints.CBNodes, c.Hints.CBBufferSize
	}
	file := FileSpec{
		Name: "solution", Path: c.Path, Mount: mount,
		CollectiveBuffering: cb, CBNodes: cbNodes, CBBufferBytes: cbBuf,
	}

	// One access per owned cell: a block per x-line, strided over the
	// cell's z (outer) and y (inner) extents.
	perRank := make([][]AccessSpec, np)
	for rank := 0; rank < np; rank++ {
		for _, g := range app.Decomposition(rank) {
			perRank[rank] = append(perRank[rank], AccessSpec{
				OffsetBytes: ((int64(g.Z0)*n+int64(g.Y0))*n + int64(g.X0)) * bpp,
				BlockBytes:  int64(g.NX) * bpp,
				Dims: []DimSpec{
					{Count: g.NZ, StrideBytes: n * n * bpp},
					{Count: g.NY, StrideBytes: n * bpp},
				},
			})
		}
	}

	// The full subtype issues collective operations even under hints
	// that disable collective buffering (the library then degrades them
	// to independent I/O itself).
	collective := c.Subtype == btio.Full
	var dumpSteps []StepSpec
	if d := app.ComputePerDump(); d > 0 {
		dumpSteps = append(dumpSteps, StepSpec{Op: OpCompute, ComputeNS: int64(d)})
	}
	dumpSteps = append(dumpSteps,
		StepSpec{Op: OpSend, ToRankOffset: 1, Messages: app.MessagesPerDump(), MessageBytes: app.FaceBytes()},
		StepSpec{Op: OpWrite, File: "solution", Collective: collective,
			PerRankAccess: perRank, LoopStrideBytes: app.DumpBytes()},
	)

	return &Spec{
		Name:  app.Name(),
		Procs: np,
		Files: []FileSpec{file},
		Start: "dump",
		Phases: []PhaseSpec{
			{Name: "dump", Loop: app.Dumps(), Steps: dumpSteps, Next: "sync-point"},
			{Name: "sync-point", Steps: []StepSpec{{Op: OpBarrier}}, Next: "readback"},
			{Name: "readback", Loop: app.Dumps(), Steps: []StepSpec{
				{Op: OpRead, File: "solution", Collective: collective,
					PerRankAccess: perRank, LoopStrideBytes: app.DumpBytes()},
			}},
		},
	}
}

// MadbenchSpec expresses a MADbench2 configuration in the DSL, the only
// runnable definition of MADbench2: three looped phases (S, W, C) of
// whole-slice independent operations with synced writes, over one
// shared file or per-rank UNIQUE files.
func MadbenchSpec(cfg madbench.Config) *Spec {
	app := madbench.New(cfg)
	c := app.Config()
	np := c.Procs
	slice := app.SliceBytes()
	shared := c.FileType == madbench.Shared

	mount := "nfs"
	if c.UseLocal {
		mount = "local"
	}
	file := FileSpec{Name: "matrices", Path: c.PathPrefix, Mount: mount, PerRank: !shared}

	// Bin b of a rank's slice lives at b*slice in a UNIQUE file and at
	// (b*np+rank)*slice in the shared bin-major layout.
	acc := []AccessSpec{{OffsetBytes: 0, BlockBytes: slice}}
	loopStride, rankStride := slice, int64(0)
	if shared {
		loopStride, rankStride = int64(np)*slice, slice
	}
	write := func(key string) StepSpec {
		return StepSpec{Op: OpWrite, File: "matrices", SyncAfter: !c.AsyncWrites,
			RateKey: key, Access: acc, LoopStrideBytes: loopStride, RankStrideBytes: rankStride}
	}
	read := func(key string) StepSpec {
		return StepSpec{Op: OpRead, File: "matrices",
			RateKey: key, Access: acc, LoopStrideBytes: loopStride, RankStrideBytes: rankStride}
	}
	busy := StepSpec{Op: OpCompute, ComputeNS: int64(c.BusyWork)}

	var sSteps, wSteps []StepSpec
	if c.BusyWork > 0 {
		sSteps = append(sSteps, busy)
	}
	sSteps = append(sSteps, write("S_w"))
	wSteps = append(wSteps, read("W_r"))
	if c.BusyWork > 0 {
		wSteps = append(wSteps, busy)
	}
	wSteps = append(wSteps, write("W_w"))

	return &Spec{
		Name:  app.Name(),
		Procs: np,
		Files: []FileSpec{file},
		Start: "S",
		Phases: []PhaseSpec{
			{Name: "S", Loop: c.Bins, Steps: sSteps, Next: "W"},
			{Name: "W", Loop: c.Bins, Steps: wSteps, Next: "C"},
			{Name: "C", Loop: c.Bins, Steps: []StepSpec{read("C_r")}},
		},
	}
}
