package main

import (
	"fmt"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/store"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// A workload is one set of inputs the benchmark runs. All of them run
// on the paper's Aohyper platform with its RAID 5 I/O node; README.md
// says why each was chosen.
type workload struct {
	name string
	// units marks a sequential characterization, whose phase builds
	// one cluster per measurement unit.
	units bool
	// prepare runs once per run, before anything is timed.
	prepare func(e *env) error
	// setup makes one iteration's session, timed as set-up, and
	// returns the phase the iteration times.
	setup func(e *env, t *tracker) (phase, error)
}

// phase is the timed part of an iteration.
type phase func() (outcome, error)

// outcome is what a phase produced: the characterization it used and,
// for the evaluation workload, the evaluation.
type outcome struct {
	char *core.Characterization
	eval *core.Evaluation
}

var workloads = []*workload{
	{name: "characterize", units: true, setup: setupCharacterize},
	{name: "btio-full", prepare: fillStore, setup: evaluation(btioApp)},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes are a run's input sizes: the benchmark's own, or the tiny ones
// the self-tests use.
type sizes struct {
	char   core.CharacterizeConfig // the characterize workload
	quick  core.CharacterizeConfig // the evaluation workload's characterization
	btio   btio.Config
	probes probeSizes
}

// fig5Modes are the four IOzone modes of the paper's Fig. 5.
var fig5Modes = []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead}

func sizesFor(size string) sizes {
	if size == "tiny" {
		return sizes{
			char: core.CharacterizeConfig{
				FSBlockSizes: []int64{1 << 20}, FSModes: fig5Modes, RandomOps: 64,
				LocalFileSize: 32 << 20, GlobalFileSize: 32 << 20,
				LibProcs: 2, LibBlockSizes: []int64{4 << 20}, LibTransfer: 256 << 10, LibFileSize: 32 << 20,
			},
			quick: core.CharacterizeConfig{
				FSBlockSizes: []int64{1 << 20}, FSModes: []bench.Mode{bench.SeqWrite, bench.SeqRead},
				LocalFileSize: 16 << 20, GlobalFileSize: 16 << 20,
				LibProcs: 2, LibBlockSizes: []int64{4 << 20}, LibTransfer: 256 << 10, LibFileSize: 16 << 20,
			},
			btio:   btio.Config{Class: btio.Class{Name: "T", N: 16, Steps: 10, WriteInterval: 5, ComputeTotal: sim.Second}, Procs: 4, Subtype: btio.Full, ComputeScale: 1},
			probes: tinyProbes,
		}
	}
	return sizes{
		// The Fig. 5 characterization with the paper's parameters: 4
		// IOzone modes on the local and NFS levels with files at twice
		// RAM, and IOR with 8 processes on a 32 GB file. Only the
		// block-size sweeps are cut, to their end points, so that a
		// run holds several iterations.
		char: core.CharacterizeConfig{
			FSBlockSizes: []int64{32 << 10, 16 << 20}, FSModes: fig5Modes, RandomOps: 2048,
			LibProcs: 8, LibBlockSizes: []int64{1 << 20, 1 << 30}, LibTransfer: 256 << 10, LibFileSize: 32 << 30,
		},
		quick:  quickPreset(),
		btio:   btio.Config{Class: btio.ClassC, Procs: 16, Subtype: btio.Full, ComputeScale: 1},
		probes: fullProbes,
	}
}

// quickPreset is the reduced characterization of the CLIs' -quick
// flag, so the store entry it fills is the one those commands share.
func quickPreset() core.CharacterizeConfig {
	cfg := core.DefaultCharacterizeConfig()
	cfg.FSBlockSizes = []int64{64 << 10, 1 << 20, 4 << 20}
	cfg.FSModes = []bench.Mode{bench.SeqWrite, bench.SeqRead}
	cfg.LocalFileSize = 512 << 20
	cfg.GlobalFileSize = 512 << 20
	cfg.LibBlockSizes = []int64{4 << 20, 32 << 20}
	cfg.LibFileSize = 256 << 20
	cfg.LibProcs = 4
	return cfg
}

// env is what one run's iterations share.
type env struct {
	opts     options
	sizes    sizes
	storeDir string
}

func newEnv(o options, dir string) (*env, error) {
	e := &env{opts: o, sizes: sizesFor(o.size), storeDir: dir + "/store"}
	if o.wl.prepare != nil {
		if err := o.wl.prepare(e); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", o.wl.name, err)
		}
	}
	return e, nil
}

// buildAohyper builds the platform every workload runs on.
func buildAohyper() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }

// setupCharacterize makes a sequential characterization session. Its
// set-up also derives the session's content fingerprint, the key the
// characterization is known by.
func setupCharacterize(e *env, t *tracker) (phase, error) {
	cfg := e.sizes.char
	sess := core.NewSession(t.build, core.WithCharacterizeConfig(cfg), core.WithCharacterizeWorkers(1))
	if _, err := core.Fingerprint(t.build, cfg); err != nil {
		return nil, err
	}
	return func() (outcome, error) {
		ch, err := sess.Characterization()
		return outcome{char: ch}, err
	}, nil
}

// fillStore characterizes the evaluation workload's configuration into
// the run's store, so that every set-up after it is a store hit.
func fillStore(e *env) error {
	st, err := store.Open(e.storeDir)
	if err != nil {
		return err
	}
	sess := core.NewSession(buildAohyper, core.WithCharacterizeConfig(e.sizes.quick), core.WithStore(st))
	_, err = sess.Characterization()
	return err
}

// evaluation returns the set-up of an evaluation workload: a session
// whose characterization is a hit in the run's store, and the
// application compiled from its synthetic-workload spec.
func evaluation(spec func(sizes) *synth.Spec) func(e *env, t *tracker) (phase, error) {
	return func(e *env, t *tracker) (phase, error) {
		st, err := store.Open(e.storeDir)
		if err != nil {
			return nil, err
		}
		sess := core.NewSession(t.build, core.WithCharacterizeConfig(e.sizes.quick), core.WithStore(st))
		hit := t.clock.elapsed()
		ch, err := sess.Characterization()
		t.storeHit = t.clock.elapsed() - hit
		if err != nil {
			return nil, err
		}
		if s := st.Stats(); s.Hits != 1 || s.Misses != 0 {
			return nil, fmt.Errorf("set-up expected one store hit, got %d hits and %d misses", s.Hits, s.Misses)
		}
		compiled, err := synth.Compile(spec(e.sizes))
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) {
			ev, err := sess.Evaluate(t.wrap(compiled))
			return outcome{char: ch, eval: ev}, err
		}, nil
	}
}

func btioApp(s sizes) *synth.Spec { return synth.BTIOSpec(s.btio) }
