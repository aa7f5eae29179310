package madbench_test

import (
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/trace"
	"ioeval/internal/workload"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

const mb = int64(1) << 20

// run executes the MADbench2 spec for cfg on c; tr may be nil.
func run(t *testing.T, c *cluster.Cluster, cfg madbench.Config, tr mpiio.Tracer) workload.Result {
	t.Helper()
	res, err := synth.MustCompile(synth.MadbenchSpec(cfg)).Run(c, tr)
	if err != nil {
		t.Fatalf("%s run: %v", cfg.FileType, err)
	}
	return res
}

func TestSliceBytesMatchesPaperTable8(t *testing.T) {
	// 18 KPIX ⇒ 18432² doubles = 2.53 GiB; /16 procs = 162 MiB,
	// /64 procs = 40.5 MiB — the paper's block sizes.
	a16 := madbench.New(madbench.Config{Procs: 16, KPix: 18})
	if got := a16.SliceBytes(); got != 162*mb {
		t.Fatalf("16-proc slice = %d, want %d", got, 162*mb)
	}
	a64 := madbench.New(madbench.Config{Procs: 64, KPix: 18})
	if got := a64.SliceBytes(); got*2 != 81*mb {
		t.Fatalf("64-proc slice = %d, want 40.5MB", got)
	}
}

func TestNonSquareProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	madbench.New(madbench.Config{Procs: 12})
}

func TestSharedRequiresNFS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	madbench.New(madbench.Config{Procs: 4, FileType: madbench.Shared, UseLocal: true})
}

func TestOpCountsMatchPaperStructure(t *testing.T) {
	// Per process: 16 writes (8 in S, 8 in W) and 16 reads (8 in W,
	// 8 in C); with 4 procs: 64 each. UNIQUE ⇒ 4 files.
	for _, ft := range []madbench.FileType{madbench.Unique, madbench.Shared} {
		tr := trace.New()
		run(t, cluster.Aohyper(cluster.RAID5), madbench.Config{Procs: 4, KPix: 2, Bins: 8, FileType: ft}, tr)
		p := tr.Profile()
		if p.NumWrites != 64 || p.NumReads != 64 {
			t.Fatalf("%v: w=%d r=%d, want 64 each", ft, p.NumWrites, p.NumReads)
		}
		wantFiles := 1
		if ft == madbench.Unique {
			wantFiles = 4
		}
		if p.NumFiles != wantFiles {
			t.Fatalf("%v: files = %d, want %d", ft, p.NumFiles, wantFiles)
		}
		if p.NumProcs != 4 {
			t.Fatalf("%v: procs = %d", ft, p.NumProcs)
		}
	}
}

func TestThreeIOPhases(t *testing.T) {
	// Each rank shows: a write phase (S), a mixed region that phase
	// detection splits into read/write alternations (W), and a read
	// phase (C). First phase must be writes, last must be reads.
	tr := trace.New()
	run(t, cluster.Aohyper(cluster.RAID5), madbench.Config{Procs: 4, KPix: 2, Bins: 8, FileType: madbench.Shared}, tr)
	phases := tr.Phases(0)
	if len(phases) < 3 {
		t.Fatalf("phases = %d, want ≥3", len(phases))
	}
	if phases[0].Kind != mpiio.OpWrite || phases[0].Ops != 8 {
		t.Fatalf("first phase %+v, want 8-op write (S)", phases[0])
	}
	last := phases[len(phases)-1]
	if last.Kind != mpiio.OpRead || last.Ops != 8 {
		t.Fatalf("last phase %+v, want 8-op read (C)", last)
	}
}

func TestPhaseRatesReported(t *testing.T) {
	res := run(t, cluster.Aohyper(cluster.RAID5), madbench.Config{Procs: 4, KPix: 2, Bins: 4, FileType: madbench.Shared}, nil)
	for _, k := range []string{"S_w", "W_r", "W_w", "C_r"} {
		if res.PhaseRates[k] <= 0 {
			t.Fatalf("phase %s rate = %f", k, res.PhaseRates[k])
		}
	}
	// W reads come straight after the same data was written: the
	// server cache should make W_r at least as fast as S_w.
	if res.PhaseRates["W_r"] < res.PhaseRates["S_w"]/2 {
		t.Fatalf("W_r (%.1f MB/s) implausibly slower than S_w (%.1f MB/s)",
			res.PhaseRates["W_r"]/1e6, res.PhaseRates["S_w"]/1e6)
	}
}

func TestUniqueLocalRunsOnNodeDisks(t *testing.T) {
	c := cluster.Aohyper(cluster.JBOD)
	run(t, c, madbench.Config{Procs: 4, KPix: 2, Bins: 4, FileType: madbench.Unique, UseLocal: true}, nil)
	if c.DataNet.Stats.Bytes != 0 {
		t.Fatalf("local run moved %d bytes over the data network", c.DataNet.Stats.Bytes)
	}
	// Data lands in the node-local filesystems (small slices may stay
	// in the write-back page cache rather than reaching the platters).
	var nodeBytes int64
	for _, n := range c.Nodes {
		nodeBytes += n.Local.Stats.BytesWritten
	}
	if nodeBytes == 0 {
		t.Fatal("no traffic reached node-local filesystems")
	}
}

func TestBusyWorkIncreasesExecOnly(t *testing.T) {
	times := func(busy bool) (exec, io float64) {
		cfg := madbench.Config{Procs: 4, KPix: 2, Bins: 4, FileType: madbench.Shared}
		if busy {
			cfg.BusyWork = 2e9 // 2 s per bin
		}
		res := run(t, cluster.Aohyper(cluster.RAID5), cfg, nil)
		return res.ExecTime.Seconds(), res.IOTime.Seconds()
	}
	e0, _ := times(false)
	e1, io1 := times(true)
	if e1 <= e0 {
		t.Fatalf("busy work did not increase exec time: %f vs %f", e1, e0)
	}
	if io1 > e1 {
		t.Fatal("IO time exceeds exec time")
	}
}
