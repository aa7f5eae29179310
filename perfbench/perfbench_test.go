package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/workload/btio"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs the benchmark at the tiny size and returns the parsed
// result line.
func runTiny(t *testing.T, workload, trace string) summary {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
		"--size", "tiny", "--work", t.TempDir()}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "# env ") {
		t.Errorf("first line is not the environment header: %q", lines[0])
	}
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return s
}

// TestTinyRunPrintsEveryMetric runs every workload of the contract,
// timed and traced, and checks that each prints exactly the
// contract's metrics with their units and passes its output check.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				want := map[string]string{}
				if trace == "0" {
					for _, m := range c.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range c.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				s := runTiny(t, w.Name, trace)
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", s.Correct, s.Attempted, s.Failed)
				}
				for name, unit := range want {
					m, ok := s.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				for name := range s.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestPerturbedOutputIsAFailure alters one row of a characterization
// table and checks that the output check counts the iteration as
// failed.
func TestPerturbedOutputIsAFailure(t *testing.T) {
	o := options{wl: workloadByName("characterize"), size: "tiny"}
	e, err := newEnv(o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(false)
	ph, err := o.wl.setup(e, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.startPhase()
	out, err := ph()
	if err != nil {
		t.Fatal(err)
	}
	tr.endPhase()
	ref := referenceFor(referenceKey(o))
	good, err := digests(out, tr.snaps)
	if err != nil {
		t.Fatal(err)
	}
	if c := checkDigests([]*iteration{{digests: good}}, ref); c.failed != 0 {
		t.Fatalf("unperturbed output fails its check: %v", c.notes)
	}

	for _, tbl := range out.char.Tables {
		tbl.Rows[0].Rate *= 1.001
		break
	}
	bad, err := digests(out, tr.snaps)
	if err != nil {
		t.Fatal(err)
	}
	c := checkDigests([]*iteration{{digests: good}, {digests: bad}}, ref)
	if c.failed != 1 {
		t.Fatalf("failed = %d, want 1 (the perturbed iteration): %v", c.failed, c.notes)
	}
	if !strings.Contains(strings.Join(c.notes, "\n"), "tables") {
		t.Errorf("the failure does not name the tables: %v", c.notes)
	}
}

// TestProbeShapesMatchWorkloads checks that the probes issue requests
// of the sizes the workloads issue.
func TestProbeShapesMatchWorkloads(t *testing.T) {
	for _, size := range []string{"full", "tiny"} {
		s := sizesFor(size)
		sh, err := shapeFor(s)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.Aohyper(cluster.RAID5)

		// BT-IO: each rank's extents are its cells of the hand-coded
		// decomposition, and together they cover one dump exactly.
		app := btio.New(s.btio)
		if sh.ranks != s.btio.Procs || sh.dumpBytes != app.DumpBytes() {
			t.Errorf("%s: BT-IO probe has %d ranks and %d-byte dumps, want %d and %d",
				size, sh.ranks, sh.dumpBytes, s.btio.Procs, app.DumpBytes())
		}
		var total int64
		for rank, vecs := range sh.rankVecs {
			var want int64
			for _, g := range app.Decomposition(rank) {
				want += int64(g.NX*g.NY*g.NZ) * btio.BytesPerPoint
			}
			var got int64
			for _, v := range vecs {
				got += v.Len
			}
			if got != want {
				t.Errorf("%s: rank %d writes %d bytes per dump, want %d", size, rank, got, want)
			}
			total += got
		}
		if total != sh.dumpBytes {
			t.Errorf("%s: ranks write %d bytes per dump, want %d", size, total, sh.dumpBytes)
		}

		// Cache, NFS, filesystem and RAID shapes.
		if sh.cache != c.IOCache.Params() {
			t.Errorf("%s: cache probe uses %+v, want the I/O node cache's %+v", size, sh.cache, c.IOCache.Params())
		}
		if sh.rpcBytes != c.Cfg.NFSClient.WSize {
			t.Errorf("%s: NFS probe moves %d bytes per RPC, want wsize %d", size, sh.rpcBytes, c.Cfg.NFSClient.WSize)
		}
		blocks := append([]int64(nil), s.char.FSBlockSizes...)
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		if sh.fsBlock != blocks[0] {
			t.Errorf("%s: fs probe writes %d bytes, want IOzone's smallest block %d", size, sh.fsBlock, blocks[0])
		}
		if sh.stripeUnit != c.Cfg.StripeUnit || sh.raidDisks != c.Cfg.RAID5Disks {
			t.Errorf("%s: RAID probe stripe %d×%d, want %d×%d", size, sh.stripeUnit, sh.raidDisks, c.Cfg.StripeUnit, c.Cfg.RAID5Disks)
		}
	}
}
