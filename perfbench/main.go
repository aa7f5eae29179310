// Command perfbench is the repository's benchmark. It measures the
// host cost of the methodology's phases on two workloads, driven
// through the public core.Session API, and checks every run's
// simulated outputs against reference digests. A traced run
// (--trace 1) attributes the cost to the layers of the simulated I/O
// path instead. README.md describes the workloads, the metrics and
// which layer metric should move which end-to-end metric.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload btio-full --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var stdout, stderr bytes.Buffer
	code := run(os.Args[1:], &stdout, &stderr)
	fmt.Fprint(os.Stderr, stderr.String())
	if _, err := os.Stdout.Write(stdout.Bytes()); err != nil && code == 0 {
		code = 1
	}
	os.Exit(code)
}

// options is one invocation's configuration.
type options struct {
	wl      *workload
	seed    int64
	budget  time.Duration
	traced  bool
	size    string // "full" or "tiny"
	workDir string
	update  bool
}

// run parses the flags, runs the benchmark and writes its report and
// result line to stdout; it returns the process exit code.
func run(args []string, stdout, stderr *bytes.Buffer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "seed of the generated probe inputs")
	seconds := fl.Int("seconds", 30, "how long one run measures, in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	size := fl.String("size", "full", "input size: full, or tiny for the self-tests")
	work := fl.String("work", ".bench_build", "directory for the run's scratch files")
	update := fl.Bool("update-reference", false, "write this run's output digests into reference.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *size != "full" && *size != "tiny":
		fmt.Fprintln(stderr, "perfbench: --size must be full or tiny")
		return 2
	}
	opts := options{
		wl: wl, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, size: *size, workDir: *work, update: *update,
	}
	fmt.Fprintln(stdout, envHeader(opts))

	res, err := measure(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if opts.update {
		if err := updateReference(referenceKey(opts), res.digests); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// envHeader describes the host and the invocation, so that two result
// sets can be checked for comparability before they are compared.
func envHeader(o options) string {
	commit, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	hdr := map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": commit, "seed": o.seed, "workload": o.wl.name, "size": o.size,
		"seconds": int(o.budget / time.Second), "trace": o.traced,
	}
	b, err := json.Marshal(hdr)
	if err != nil {
		return "# env unavailable: " + err.Error()
	}
	return "# env " + string(b)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a finished run: the summary, the human-readable report
// printed above it, and the digests of the run's simulated outputs.
type result struct {
	summary summary
	report  []string
	digests map[string]string
}

// measure runs one invocation: set-up, then either the timed
// iterations or the traced pass.
func measure(o options) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)

	e, err := newEnv(o, dir)
	if err != nil {
		return nil, err
	}
	ref := referenceFor(referenceKey(o))
	if o.update {
		ref = nil // the run writes the reference instead of checking it
	}
	if o.traced {
		return tracedRun(e, ref)
	}
	return timedRun(e, ref)
}

// timedRun measures the end-to-end metrics with every span, probe and
// profiler off. Host times are rescaled to the reference speed by the
// calibration samples around each iteration (see calibrate.go); the
// report above the result line also gives them as measured.
func timedRun(e *env, ref map[string]string) (*result, error) {
	p := iterate(e, e.opts.budget, minTimedIterations, extraSetups, false)
	its := p.its
	chk := checkDigests(its, ref)

	var rusage syscall.Rusage
	peakRSS := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err == nil {
		peakRSS = float64(rusage.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	ok := successful(its)
	var setups, refSetups []float64
	for _, it := range its {
		for _, d := range append([]time.Duration{it.setup}, it.setups...) {
			setups = append(setups, d.Seconds())
			refSetups = append(refSetups, d.Seconds()/it.slowdown)
		}
	}
	wall := seconds(ok, func(it *iteration) time.Duration { return it.wall })
	reqPerS := values(ok, func(it *iteration) float64 { return float64(it.requests) / it.wall.Seconds() })
	metrics := []series{
		{"wall_s", "s", values(ok, func(it *iteration) float64 { return it.wall.Seconds() / it.slowdown })},
		{"setup_s", "s", refSetups},
		{"req_per_s", "1/s", values(ok, func(it *iteration) float64 { return float64(it.requests) / it.wall.Seconds() * it.slowdown })},
		{"alloc_mb", "MB", values(ok, func(it *iteration) float64 { return float64(it.allocBytes) / 1e6 })},
		{"allocs_m", "M", values(ok, func(it *iteration) float64 { return float64(it.allocs) / 1e6 })},
		{"peak_rss_mb", "MB", []float64{peakRSS}},
	}
	measured := []series{
		{"host.wall_s", "s", wall},
		{"host.cpu_s", "s", seconds(ok, func(it *iteration) time.Duration { return it.cpu })},
		{"host.setup_s", "s", setups},
		{"host.req_per_s", "1/s", reqPerS},
		{"host.calib_s", "s", durations(p.cals)},
		{"host.slowdown", "ratio", values(its, func(it *iteration) float64 { return it.slowdown })},
	}
	res := &result{digests: chk.digests}
	res.summary = summary{Correct: chk.failed == 0, Attempted: len(its), Failed: chk.failed, Metrics: map[string]metric{}}
	for _, s := range metrics {
		res.summary.Metrics[s.name] = metric{Value: median(s.vals), Unit: s.unit}
	}
	res.report = append(res.report, iterationLines(its, chk)...)
	res.report = append(res.report, seriesTable(append(measured, metrics...))...)
	res.report = append(res.report, fmt.Sprintf("fail_frac %d/%d = %.4f", chk.failed, len(its), float64(chk.failed)/float64(len(its))))
	return res, nil
}

// minTimedIterations is the fewest timed iterations a run makes, even
// when one iteration outlasts the run's measurement time.
const minTimedIterations = 3

// extraSetups is how many set-ups a timed run times on their own
// before each iteration, so that setup_s is a median over many
// samples spread over the whole run.
const extraSetups = 10

// pass is a run of iterations with, unless traced, the calibration
// samples taken between them: one before each iteration and one after
// the last.
type pass struct {
	its  []*iteration
	cals []time.Duration
}

// iterate runs iterations until the budget is spent, never starting
// one that the median of the previous ones says would overrun it,
// and always running at least minIts. Each iteration first times extra
// set-ups on their own. A traced pass takes no calibration samples,
// which would otherwise enter its CPU profile.
func iterate(e *env, budget time.Duration, minIts, extra int, traced bool) pass {
	var p pass
	var spent []time.Duration
	sw := startWatch()
	for len(p.its) < minIts || sw.elapsed()+durationMedian(spent) <= budget {
		it0 := startWatch()
		if !traced {
			p.cals = append(p.cals, calibrate())
		}
		p.its = append(p.its, runIteration(e, extra, traced))
		spent = append(spent, it0.elapsed())
	}
	if traced {
		for _, it := range p.its {
			it.slowdown = 1
		}
		return p
	}
	p.cals = append(p.cals, calibrate())
	for i, it := range p.its {
		it.slowdown = slowdown(p.cals[max(0, i-1):min(len(p.cals), i+3)])
	}
	return p
}

// successful returns the iterations that finished without error.
func successful(its []*iteration) []*iteration {
	var out []*iteration
	for _, it := range its {
		if it.err == nil {
			out = append(out, it)
		}
	}
	return out
}

// digestCheck is the outcome of comparing iterations' digests to the
// reference.
type digestCheck struct {
	failed  int
	digests map[string]string // the first successful iteration's
	notes   []string
}

// checkDigests counts as failed every iteration that errored or whose
// output digests differ from the reference (or, with no reference,
// from the first iteration).
func checkDigests(its []*iteration, ref map[string]string) digestCheck {
	var c digestCheck
	for i, it := range its {
		if it.err != nil {
			c.failed++
			c.notes = append(c.notes, fmt.Sprintf("iteration %d failed: %v", i, it.err))
			continue
		}
		if c.digests == nil {
			c.digests = it.digests
		}
		want := ref
		if want == nil {
			want = c.digests
		}
		if bad := diffDigests(want, it.digests); len(bad) > 0 {
			c.failed++
			c.notes = append(c.notes, fmt.Sprintf("iteration %d: output digest mismatch in %s", i, strings.Join(bad, ", ")))
		}
	}
	return c
}

// diffDigests lists the outputs whose digests differ, in name order.
func diffDigests(want, got map[string]string) []string {
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// iterationLines prints one line per iteration and the digest notes.
func iterationLines(its []*iteration, c digestCheck) []string {
	var out []string
	for i, it := range its {
		out = append(out, fmt.Sprintf("iteration %d: wall %.4fs cpu %.4fs setup %.6fs slowdown %.4f requests %d",
			i, it.wall.Seconds(), it.cpu.Seconds(), it.setup.Seconds(), it.slowdown, it.requests))
	}
	return append(out, c.notes...)
}

// series is one metric's samples over a run.
type series struct {
	name, unit string
	vals       []float64
}

// seriesTable prints each series as its median and highest sample,
// with the sample count: a run has too few samples for any percentile
// below the maximum to have ten samples beyond it.
func seriesTable(ss []series) []string {
	out := []string{fmt.Sprintf("%-16s %16s %16s %4s  %s", "metric", "median", "max", "n", "unit")}
	for _, s := range ss {
		out = append(out, fmt.Sprintf("%-16s %16.6g %16.6g %4d  %s", s.name, median(s.vals), maxOf(s.vals), len(s.vals), s.unit))
	}
	return out
}

func seconds(its []*iteration, f func(*iteration) time.Duration) []float64 {
	return values(its, func(it *iteration) float64 { return f(it).Seconds() })
}

func values(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationMedian(ds []time.Duration) time.Duration {
	return time.Duration(median(durations(ds)) * float64(time.Second))
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for i, v := range vs {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// referencePath is where --update-reference writes, relative to the
// root of the repository.
const referencePath = "perfbench/reference.json"
