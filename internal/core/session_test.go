package core

import (
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

func quickBTIO() *synth.App {
	return synth.MustCompile(synth.BTIOSpec(btio.Config{
		Class: btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5},
		Procs: 4, Subtype: btio.Full,
	}))
}

// writeRate extracts the evaluation's measured write transfer rate.
func writeRate(t *testing.T, ev *Evaluation) float64 {
	t.Helper()
	for _, m := range ev.Measurements() {
		if m.Op == Write {
			return m.Rate
		}
	}
	t.Fatal("no write measurement")
	return 0
}

// auxSum sums one aux counter over all components matching a name
// predicate in the evaluation's telemetry snapshots.
func auxSum(ev *Evaluation, match func(string) bool, key string) int64 {
	var total int64
	for _, s := range ev.Components() {
		if match(s.Component) {
			total += s.Counters.Aux[key]
		}
	}
	return total
}

// TestSessionDegradedRAID5 is the acceptance scenario: a RAID 5
// Aohyper evaluation under the single-disk-failure plan must show a
// lower write transfer rate than the healthy run, with nonzero
// rebuild telemetry, and the full report must replay byte-identically
// from a fresh session.
func TestSessionDegradedRAID5(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	plan, err := fault.Builtin("disk-fail")
	if err != nil {
		t.Fatal(err)
	}
	// Class A is big enough (~40 dumps) that the builtin failure at
	// t=2s lands inside the write phases and the flushes feel the
	// degraded array; the tiny quickBTIO class finishes before it.
	app := func() *synth.App {
		return synth.MustCompile(synth.BTIOSpec(btio.Config{Class: btio.ClassA, Procs: 4, Subtype: btio.Full, ComputeScale: 1}))
	}
	newRep := func() *Report {
		sess := NewSession(build,
			WithCharacterizeConfig(quickCharCfg()),
			WithFaultPlan(plan),
		)
		rep, err := sess.Run(app())
		if err != nil {
			t.Fatalf("session run: %v", err)
		}
		return rep
	}
	rep := newRep()

	if rep.Scenario != "disk-fail" {
		t.Fatalf("Scenario = %q", rep.Scenario)
	}
	if rep.Degraded == nil {
		t.Fatal("no degraded evaluation")
	}
	if rep.Degraded.Scenario() != "disk-fail" {
		t.Fatalf("degraded evaluation scenario = %q", rep.Degraded.Scenario())
	}
	if rep.Evaluation.Scenario() != "" {
		t.Fatalf("healthy evaluation tagged %q", rep.Evaluation.Scenario())
	}

	healthyW := writeRate(t, rep.Evaluation)
	degradedW := writeRate(t, rep.Degraded)
	if degradedW >= healthyW {
		t.Fatalf("degraded write rate %.2f MB/s not below healthy %.2f MB/s",
			degradedW/1e6, healthyW/1e6)
	}

	// The failure and its rebuild must be visible in the degraded
	// run's telemetry — and absent from the healthy one.
	isFault := func(name string) bool { return strings.HasPrefix(name, "fault:") }
	if got := auxSum(rep.Degraded, isFault, "disk_failures"); got != 1 {
		t.Fatalf("degraded disk_failures = %d", got)
	}
	if got := auxSum(rep.Degraded, isFault, "rebuilds_started"); got != 1 {
		t.Fatalf("degraded rebuilds_started = %d", got)
	}
	any := func(string) bool { return true }
	if got := auxSum(rep.Degraded, any, "rebuild_bytes"); got <= 0 {
		t.Fatalf("degraded rebuild_bytes = %d", got)
	}
	if got := auxSum(rep.Degraded, any, "degraded_reads"); got <= 0 {
		t.Logf("note: degraded_reads = %d (workload may be write-dominated)", got)
	}
	for _, s := range rep.Evaluation.Components() {
		if isFault(s.Component) {
			t.Fatalf("healthy evaluation has fault component %q", s.Component)
		}
	}
	var haveFaultLevel bool
	for _, s := range rep.Degraded.Components() {
		if s.Level == telemetry.LevelFault {
			haveFaultLevel = true
		}
	}
	if !haveFaultLevel {
		t.Fatal("no LevelFault component in degraded telemetry")
	}

	// The rendered report carries both halves plus the comparison.
	text := rep.String()
	for _, want := range []string{
		"fault scenario: disk-fail",
		"Healthy vs degraded used-%",
		"ΔRate%",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	if rep.DegradedUtilization == "" {
		t.Fatal("no degraded utilization report")
	}

	// Determinism: a fresh session replays the whole report
	// byte-identically.
	if again := newRep().String(); again != text {
		t.Fatal("degraded report not byte-identical across fresh sessions")
	}
}

func TestSessionEmptyPlanIsHealthy(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.JBOD) }
	sess := NewSession(build,
		WithCharacterizeConfig(quickCharCfg()),
		WithFaultPlan(fault.Plan{}), // empty: must be ignored
	)
	if sess.Scenario() != "" {
		t.Fatalf("Scenario = %q for empty plan", sess.Scenario())
	}
	if _, ok := sess.FaultPlan(); ok {
		t.Fatal("FaultPlan reports an armed plan")
	}
	if _, err := sess.EvaluateScenario(quickBTIO()); err == nil {
		t.Fatal("EvaluateScenario without a plan did not error")
	}
	rep, err := sess.Run(quickBTIO())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != nil || rep.Scenario != "" {
		t.Fatalf("healthy run produced degraded half: scenario=%q", rep.Scenario)
	}
	if strings.Contains(rep.String(), "fault scenario") {
		t.Fatal("healthy report mentions fault scenario")
	}
}

// TestSessionPresetCharacterization: WithCharacterization short-
// circuits the characterize step entirely.
func TestSessionPresetCharacterization(t *testing.T) {
	preset := &Characterization{Config: "preset", Tables: map[Level]*PerfTable{}}
	calls := 0
	build := func() *cluster.Cluster { calls++; return cluster.Aohyper(cluster.JBOD) }
	sess := NewSession(build, WithCharacterization(preset))
	ch, err := sess.Characterization()
	if err != nil {
		t.Fatal(err)
	}
	if ch != preset {
		t.Fatal("preset characterization not returned")
	}
	if calls != 0 {
		t.Fatalf("build called %d times for preset characterization", calls)
	}
}

// TestSessionCharacterizationSingleFlight: the characterization is
// computed once and shared by later calls.
func TestSessionCharacterizationSingleFlight(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.JBOD) }
	sess := NewSession(build, WithCharacterizeConfig(quickCharCfg()))
	ch1, err := sess.Characterization()
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := sess.Characterization()
	if err != nil {
		t.Fatal(err)
	}
	if ch1 != ch2 {
		t.Fatal("characterization recomputed")
	}
}

// TestSessionRunReusesCharacterization: Run on a session that already
// characterized must reuse the cached tables, and a healthy session's
// report carries no degraded half.
func TestSessionRunReusesCharacterization(t *testing.T) {
	sess := NewSession(
		func() *cluster.Cluster { return cluster.Aohyper(cluster.JBOD) },
		WithCharacterizeConfig(quickCharCfg()),
	)
	ch1, err := sess.Characterization()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(quickBTIO())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Characterization != ch1 {
		t.Fatal("Run recomputed the session's characterization")
	}
	if rep.Evaluation == nil || rep.Degraded != nil {
		t.Fatalf("report malformed: eval=%v degraded=%v", rep.Evaluation, rep.Degraded)
	}
}
