package trace_test

import (
	"reflect"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func runForInfer(t *testing.T, app workload.App) (workload.Result, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	res, err := app.Run(cluster.Aohyper(cluster.RAID5), tr)
	if err != nil {
		t.Fatalf("%s: run: %v", app.Name(), err)
	}
	return res, tr
}

// assertInferReplayExact covers the lossless corner of inference:
// when every I/O event is a single contiguous access (MADbench2's
// shape), the inferred spec must replay with a byte- and
// timestamp-identical timeline.
func assertInferReplayExact(t *testing.T, app workload.App) {
	t.Helper()
	_, origTr := runForInfer(t, app)

	spec, err := trace.InferSpec(origTr, app.Name())
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	replay, err := synth.Compile(spec)
	if err != nil {
		t.Fatalf("compile inferred spec: %v", err)
	}
	_, replayTr := runForInfer(t, replay)

	oe, re := origTr.Events(), replayTr.Events()
	if len(oe) != len(re) {
		t.Fatalf("event count: original %d, replay %d", len(oe), len(re))
	}
	for i := range oe {
		if oe[i] != re[i] {
			t.Fatalf("event %d diverges:\noriginal: %+v\nreplay:   %+v", i, oe[i], re[i])
		}
	}
}

// assertInferReplayBytes covers the lossy corner: non-uniform vector
// and collective accesses replay as approximated layouts, but the
// operation profile (op counts, transfer sizes, total bytes) must
// still match the original exactly.
func assertInferReplayBytes(t *testing.T, app workload.App) {
	t.Helper()
	origRes, origTr := runForInfer(t, app)

	spec, err := trace.InferSpec(origTr, app.Name())
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	replay, err := synth.Compile(spec)
	if err != nil {
		t.Fatalf("compile inferred spec: %v", err)
	}
	replayRes, replayTr := runForInfer(t, replay)

	if origRes.BytesRead != replayRes.BytesRead || origRes.BytesWritten != replayRes.BytesWritten {
		t.Errorf("bytes diverge: original r=%d w=%d, replay r=%d w=%d",
			origRes.BytesRead, origRes.BytesWritten, replayRes.BytesRead, replayRes.BytesWritten)
	}
	// The replayed layout is approximated, so timing differs; every
	// structural field of the profile must survive.
	hp, rp := origTr.Profile(), replayTr.Profile()
	hp.ExecTime, rp.ExecTime = 0, 0
	hp.IOTime, rp.IOTime = 0, 0
	if !reflect.DeepEqual(hp, rp) {
		t.Errorf("profile diverges:\noriginal: %+v\nreplay:   %+v", hp, rp)
	}
}

func TestInferSpecMadbenchSharedExact(t *testing.T) {
	assertInferReplayExact(t, synth.MustCompile(synth.MadbenchSpec(madbench.Config{
		Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared,
		BusyWork: 5 * sim.Millisecond,
	})))
}

func TestInferSpecMadbenchUniqueExact(t *testing.T) {
	assertInferReplayExact(t, synth.MustCompile(synth.MadbenchSpec(madbench.Config{
		Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Unique,
	})))
}

func TestInferSpecMadbenchAsyncExact(t *testing.T) {
	assertInferReplayExact(t, synth.MustCompile(synth.MadbenchSpec(madbench.Config{
		Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared, AsyncWrites: true,
	})))
}

func TestInferSpecBTIOSimpleProfile(t *testing.T) {
	cfg := btio.Config{
		Class: btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5},
		Procs: 4, Subtype: btio.Simple,
	}
	assertInferReplayBytes(t, synth.MustCompile(synth.BTIOSpec(cfg)))
}

func TestInferSpecBTIOFullProfile(t *testing.T) {
	cfg := btio.Config{
		Class: btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5},
		Procs: 4, Subtype: btio.Full,
	}
	assertInferReplayBytes(t, synth.MustCompile(synth.BTIOSpec(cfg)))
}

// TestInferSpecRollsLoops pins the compression step: BT-IO's dump and
// readback iterations must come back as looped phases with the dump
// stride, not as unrolled step lists.
func TestInferSpecRollsLoops(t *testing.T) {
	cfg := btio.Config{
		Class: btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5},
		Procs: 4, Subtype: btio.Simple,
	}
	app := synth.MustCompile(synth.BTIOSpec(cfg))
	_, tr := runForInfer(t, app)
	spec, err := trace.InferSpec(tr, app.Name())
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	dumps := cfg.Class.Steps / cfg.Class.WriteInterval
	if len(spec.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (dump loop, barrier, readback loop):\n%+v", len(spec.Phases), spec.Phases)
	}
	if spec.Phases[0].Loop != dumps {
		t.Errorf("dump phase loop = %d, want %d", spec.Phases[0].Loop, dumps)
	}
	if spec.Phases[2].Loop != dumps {
		t.Errorf("readback phase loop = %d, want %d", spec.Phases[2].Loop, dumps)
	}
	dumpBytes := btio.New(cfg).DumpBytes()
	for _, ph := range []synth.PhaseSpec{spec.Phases[0], spec.Phases[2]} {
		for _, st := range ph.Steps {
			if st.Op == synth.OpWrite || st.Op == synth.OpRead {
				if st.LoopStrideBytes != dumpBytes {
					t.Errorf("%s loop stride = %d, want dump size %d", st.Op, st.LoopStrideBytes, dumpBytes)
				}
			}
		}
	}
}

// TestInferSpecPerRankFiles pins UNIQUE-layout detection: np files
// named prefix.%04d, each touched by one rank, collapse to a single
// per-rank FileSpec with the prefix as path.
func TestInferSpecPerRankFiles(t *testing.T) {
	app := synth.MustCompile(synth.MadbenchSpec(madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Unique}))
	_, tr := runForInfer(t, app)
	spec, err := trace.InferSpec(tr, app.Name())
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	if len(spec.Files) != 1 {
		t.Fatalf("files = %+v, want one per-rank file", spec.Files)
	}
	f := spec.Files[0]
	if !f.PerRank {
		t.Errorf("file %+v not detected as per-rank", f)
	}
	if strings.HasSuffix(f.Path, ".0000") {
		t.Errorf("path %q still carries a rank suffix", f.Path)
	}
}

// TestInferSpecErrors: traces inference cannot express fail loudly.
func TestInferSpecErrors(t *testing.T) {
	t.Run("empty trace", func(t *testing.T) {
		if _, err := trace.InferSpec(trace.New(), "x"); err == nil {
			t.Fatal("accepted empty trace")
		}
	})
	t.Run("non-contiguous ranks", func(t *testing.T) {
		tr := trace.New()
		tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpWrite, File: "/f", Offset: 0, Bytes: 8, Count: 1, T0: 0, T1: 1})
		tr.Record(mpiio.Event{Rank: 2, Op: mpiio.OpWrite, File: "/f", Offset: 8, Bytes: 8, Count: 1, T0: 0, T1: 1})
		if _, err := trace.InferSpec(tr, "x"); err == nil || !strings.Contains(err.Error(), "contiguous") {
			t.Fatalf("want non-contiguous rank error, got %v", err)
		}
	})
	t.Run("divergent ranks", func(t *testing.T) {
		tr := trace.New()
		tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpWrite, File: "/f", Offset: 0, Bytes: 8, Count: 1, T0: 0, T1: 1})
		tr.Record(mpiio.Event{Rank: 1, Op: mpiio.OpRead, File: "/f", Offset: 0, Bytes: 8, Count: 1, T0: 0, T1: 1})
		if _, err := trace.InferSpec(tr, "x"); err == nil || !strings.Contains(err.Error(), "diverges") {
			t.Fatalf("want congruence error, got %v", err)
		}
	})
	t.Run("no file operations", func(t *testing.T) {
		tr := trace.New()
		tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpCompute, Offset: -1, T0: 0, T1: 10})
		if _, err := trace.InferSpec(tr, "x"); err == nil || !strings.Contains(err.Error(), "no file") {
			t.Fatalf("want no-file error, got %v", err)
		}
	})
}

// TestInferSpecVectorRemainder: a vector event whose bytes do not
// divide evenly by its count must still replay byte- and count-exact
// (mean-size blocks plus a widened final block).
func TestInferSpecVectorRemainder(t *testing.T) {
	tr := trace.New()
	tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpWrite, File: "/f", Offset: 0, Bytes: 10, Count: 3, T0: 0, T1: 1})
	spec, err := trace.InferSpec(tr, "rem")
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	_, written := spec.DeclaredBytes()
	if written != 10 {
		t.Errorf("declared written = %d, want 10", written)
	}
	st := spec.Phases[0].Steps[0]
	elems := int64(0)
	for _, a := range st.PerRankAccess[0] {
		elems += a.Elements()
	}
	if elems != 3 {
		t.Errorf("replay elements = %d, want 3:\n%+v", elems, st.PerRankAccess[0])
	}
	if _, err := synth.Compile(spec); err != nil {
		t.Fatalf("compile: %v", err)
	}
}
