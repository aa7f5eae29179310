package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// tracedRun is the --trace 1 pass. It runs untraced iterations first,
// then the same iterations with spans and the CPU profiler on, then
// the layer probes, and reports the per-layer metrics. Every
// iteration's outputs must match the reference, which shows that
// tracing never perturbs the model.
func tracedRun(e *env, ref map[string]string) (*result, error) {
	share := e.opts.budget * 2 / 5
	plain := iterate(e, share, 1, 0, false).its

	var prof bytes.Buffer
	gc0 := readGC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := iterate(e, share, 1, 0, true).its
	pprof.StopCPUProfile()
	gc1 := readGC()

	all := append(append([]*iteration(nil), plain...), traced...)
	chk := checkDigests(all, ref)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	ok := successful(traced)
	spanMetrics(ok, e.opts.wl.units, put)
	plainWall := median(seconds(successful(plain), func(it *iteration) time.Duration { return it.wall }))
	tracedWall := median(seconds(ok, func(it *iteration) time.Duration { return it.wall }))
	overhead := 0.0
	if plainWall > 0 {
		overhead = tracedWall/plainWall - 1
	}
	put("trace.overhead_frac", "ratio", overhead)
	put("host.wall_s", "s", plainWall)
	put("host.slowdown", "ratio", median(values(plain, func(it *iteration) float64 { return it.slowdown })))

	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, mod := range profiledModules {
		put(mod.name+".cpu_frac", "ratio", shares[mod.name])
	}
	put("go.gc_cpu_frac", "ratio", gc1.cpuFrac(gc0))
	n := float64(len(traced))
	put("go.gc_cycles", "count", float64(gc1.cycles-gc0.cycles)/n)

	counters := map[string]float64{}
	if len(ok) > 0 {
		counters = simCounters(ok[0].trace.snaps)
	}
	for _, name := range counterNames {
		unit := "count"
		switch {
		case strings.HasSuffix(name, "_bytes") || name == "netsim.bytes":
			unit = "B"
		case strings.HasSuffix(name, "_s"):
			unit = "s"
		}
		put(name, unit, counters[name])
	}

	probes, err := runProbes(e.sizes, e.opts.seed)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		put(p.name, p.unit, p.value)
	}

	res := &result{digests: chk.digests}
	res.summary = summary{Correct: chk.failed == 0, Attempted: len(all), Failed: chk.failed, Metrics: m}
	res.report = append(res.report, fmt.Sprintf("untraced iterations %d, traced iterations %d", len(plain), len(traced)))
	res.report = append(res.report, iterationLines(all, chk)...)
	for _, name := range sortedKeys(m) {
		res.report = append(res.report, fmt.Sprintf("%-26s %16.6g  %s", name, m[name].Value, m[name].Unit))
	}
	return res, nil
}

// spanMetrics reports the spans of the traced iterations, each as the
// median over iterations.
func spanMetrics(its []*iteration, units bool, put func(name, unit string, v float64)) {
	var buildMs, builds, run, analysis, hit []float64
	level := map[string][]float64{"local": nil, "nfs": nil, "library": nil}
	for _, it := range its {
		t := it.trace
		builds = append(builds, float64(len(t.builds)))
		var inPhase time.Duration
		for i, b := range t.builds {
			buildMs = append(buildMs, float64(b.end-b.start)/float64(time.Millisecond))
			if i >= t.phaseFirst {
				inPhase += b.end - b.start
			}
		}
		hit = append(hit, float64(t.storeHit)/float64(time.Millisecond))
		run = append(run, t.appRun.Seconds())
		// Evaluate's own work: the phase less the application's run
		// and the cluster it built.
		if t.appRun > 0 {
			analysis = append(analysis, (t.phaseSpan.end - t.phaseSpan.start - t.appRun - inPhase).Seconds())
		} else {
			analysis = append(analysis, 0)
		}
		// A sequential characterization builds one cluster per unit,
		// so a unit runs from the end of its build to the start of the
		// next one; its level is the one its cluster served.
		sums := map[string]time.Duration{}
		phaseBuilds := t.builds[t.phaseFirst:]
		if !units {
			phaseBuilds = nil
		}
		for i, b := range phaseBuilds {
			end := t.phaseSpan.end
			if i+1 < len(phaseBuilds) {
				end = phaseBuilds[i+1].start
			}
			if i < len(t.snaps) {
				lv, _ := entryLevel(t.snaps[i])
				sums[lv] += end - b.end
			}
		}
		for lv := range level {
			level[lv] = append(level[lv], sums[lv].Seconds())
		}
	}
	put("cluster.build_ms", "ms", median(buildMs))
	put("cluster.builds", "count", median(builds))
	put("bench.iozone_local_s", "s", median(level["local"]))
	put("bench.iozone_nfs_s", "s", median(level["nfs"]))
	put("bench.ior_s", "s", median(level["library"]))
	put("workload.run_s", "s", median(run))
	put("core.analysis_s", "s", median(analysis))
	put("store.hit_ms", "ms", median(hit))
}

// gcReading is the runtime's garbage-collection accounting at one
// instant. It counts only the cycles the program triggered, not the
// collections the benchmark forces between iterations.
type gcReading struct {
	cycles        uint32
	gcCPU, allCPU float64
}

func readGC() gcReading {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := gcReading{cycles: ms.NumGC - ms.NumForcedGC}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU, r.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return r
}

// cpuFrac is the share of the CPU time between two readings that the
// garbage collector took.
func (r gcReading) cpuFrac(prev gcReading) float64 {
	all := r.allCPU - prev.allCPU
	if all <= 0 {
		return 0
	}
	return (r.gcCPU - prev.gcCPU) / all
}

// profiledModules are the program's packages a CPU sample is
// attributed to, by import path below ioeval/internal/.
var profiledModules = []struct{ name, path string }{
	{"sim", "sim"}, {"cache", "cache"}, {"nfs", "nfs"}, {"netsim", "netsim"},
	{"mpiio", "mpiio"}, {"fs", "fs"}, {"raid", "raid"}, {"device", "device"},
	{"core", "core"}, {"synth", "workload/synth"},
}

// moduleShares attributes each CPU profile sample to the innermost
// frame of a profiled module, so a module's share includes the runtime
// work (allocation, channel handoff) its own code called for. Samples
// with no such frame, such as the collector's background work, count
// only in the total.
func moduleShares(raw []byte) (map[string]float64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byPath := map[string]string{}
	for _, m := range profiledModules {
		byPath["ioeval/internal/"+m.path] = m.name
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		for _, fn := range s.stack {
			if mod, ok := byPath[packageOf(fn)]; ok {
				counts[mod] += s.count
				break
			}
		}
	}
	shares := map[string]float64{}
	for mod, n := range counts {
		shares[mod] = float64(n) / float64(total)
	}
	return shares, nil
}

// packageOf returns the import path of a symbol name such as
// "ioeval/internal/cache.(*Cache).insert".
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}
