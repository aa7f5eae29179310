package synth_test

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

// quickClass is the reduced BT-IO class the other workload tests use
// (4 dumps).
var quickClass = btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5, ComputeTotal: 10 * sim.Second}

// conformRecord renders everything the conformance tests pin about one
// run: identity, the full Result and trace Profile (%#v, so durations
// print as exact nanoseconds), the event count, and a SHA-256 over the
// %+v rendering of every event (every field, every timestamp).
func conformRecord(app workload.App, res workload.Result, tr *trace.Tracer) []byte {
	h := sha256.New()
	evs := tr.Events()
	for _, ev := range evs {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return fmt.Appendf(nil, "name: %q\nprocs: %d\nresult: %#v\nprofile: %#v\nevents: %d\nevents-sha256: %x\n",
		app.Name(), app.Procs(), res, tr.Profile(), len(evs), h.Sum(nil))
}

// assertConform runs the spec on a fresh Aohyper with the given
// organization and compares its conformance record with
// testdata/conform/<name>.golden.txt. The goldens were recorded from the original hand-coded BT-IO and
// MADbench2 while they still ran beside the specs, so they pin the
// specs to the benchmarks' semantics: the full Result (times, bytes,
// phase rates), the raw event trace (every operation, offset, size,
// and timestamp), and the derived characterization profile. The
// simulation is deterministic, so exact equality is the right bar.
func assertConform(t *testing.T, name string, org cluster.Organization, spec *synth.Spec) {
	t.Helper()
	app, err := synth.Compile(spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := trace.New()
	res, err := app.Run(cluster.Aohyper(org), tr)
	if err != nil {
		t.Fatalf("%s: run: %v", app.Name(), err)
	}
	compareGolden(t, filepath.Join("testdata", "conform", name+".golden.txt"), conformRecord(app, res, tr))
}

func TestSynthConformBTIOFull(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}
	assertConform(t, "btio_full", cluster.RAID5, synth.BTIOSpec(cfg))
}

func TestSynthConformBTIOSimple(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Simple}
	assertConform(t, "btio_simple", cluster.JBOD, synth.BTIOSpec(cfg))
}

func TestSynthConformBTIOComputeComm(t *testing.T) {
	// Compute delays and boundary-exchange messages shift the timeline;
	// conformance must hold with them in play.
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full, ComputeScale: 0.1}
	assertConform(t, "btio_compute_comm", cluster.RAID5, synth.BTIOSpec(cfg))
}

func TestSynthConformMadbenchShared(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared}
	assertConform(t, "madbench_shared", cluster.RAID5, synth.MadbenchSpec(cfg))
}

func TestSynthConformMadbenchUnique(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Unique,
		UseLocal: true, BusyWork: 5 * sim.Millisecond}
	assertConform(t, "madbench_unique", cluster.RAID5, synth.MadbenchSpec(cfg))
}

func TestSynthConformMadbenchAsync(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared, AsyncWrites: true}
	assertConform(t, "madbench_async", cluster.RAID5, synth.MadbenchSpec(cfg))
}

// TestSynthConformSpecRoundTrip asserts the DSL is lossless through
// its own serialization: generator → JSON → ParseSpec must conform
// just like the in-memory spec (the committed example files are this
// JSON).
func TestSynthConformSpecRoundTrip(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}
	var buf writerBuf
	if err := synth.BTIOSpec(cfg).WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	spec, err := synth.ParseSpec(buf.b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	assertConform(t, "btio_spec_roundtrip", cluster.RAID5, spec)
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
