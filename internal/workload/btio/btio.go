// Package btio defines the NAS BT-IO benchmark (NPB 2.4 I/O version):
// its configuration and the geometry of the Block-Tridiagonal solver's
// diagonal multi-partitioning decomposition, a solution-field dump
// every WriteInterval time steps, and the two I/O subtypes the paper
// contrasts:
//
//   - full:   MPI-IO with collective buffering — data is rearranged
//     across processes and written as few large contiguous chunks.
//   - simple: MPI-IO without collective buffering — every process
//     writes each of its cell lines with an individual seek+write,
//     producing millions of ~1.6 KB strided operations.
//
// The decomposition reproduces the paper's characterization tables
// exactly in structure: class C on 16 processes yields 6561 records
// per process per dump of 1600 and 1640 bytes (Table II); on 64
// processes, 800- and 840-byte records (Table V).
//
// The runnable workload is synth.BTIOSpec, which reads this geometry.
package btio

import (
	"fmt"
	"math"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
)

// Subtype selects the BT-IO I/O implementation.
type Subtype int

// The paper's two evaluated subtypes.
const (
	Full Subtype = iota
	Simple
)

func (s Subtype) String() string {
	if s == Full {
		return "full"
	}
	return "simple"
}

// Class is an NPB problem class.
type Class struct {
	Name          string
	N             int // grid points per dimension
	Steps         int // time steps
	WriteInterval int // dump the solution every this many steps
	// ComputeTotal approximates the aggregate computation time of the
	// whole run on the reference hardware; it is divided over ranks
	// and steps.
	ComputeTotal sim.Duration
}

// NPB classes with I/O (per the NPB 2.4 specification).
var (
	ClassA = Class{Name: "A", N: 64, Steps: 200, WriteInterval: 5, ComputeTotal: 120 * sim.Second}
	ClassB = Class{Name: "B", N: 102, Steps: 200, WriteInterval: 5, ComputeTotal: 500 * sim.Second}
	ClassC = Class{Name: "C", N: 162, Steps: 200, WriteInterval: 5, ComputeTotal: 2000 * sim.Second}
)

// BytesPerPoint is the record unit of the solution file: five
// double-precision words per mesh point.
const BytesPerPoint = 5 * 8

// Config parameterizes a BT-IO run.
type Config struct {
	Class   Class
	Procs   int // must be a perfect square (BT requirement)
	Subtype Subtype
	// Path of the shared solution file on the cluster's NFS storage.
	Path string
	// ComputeScale scales the modeled computation time (1.0 = class
	// default; 0 = I/O only). Tests use small values.
	ComputeScale float64
	// UsePFS runs against the cluster's parallel filesystem instead
	// of NFS (the cluster must be built with Config.PFSIONodes > 0).
	UsePFS bool
	// Hints overrides the MPI-IO hints; zero value uses subtype
	// defaults (full: collective buffering on; simple: off).
	Hints *mpiio.Hints
}

// App is a validated BT-IO configuration and its decomposition.
type App struct {
	cfg Config
	q   int   // process grid side (procs = q²)
	xs  []int // split of N into q chunks (larger chunks first)
	pfx []int // prefix sums of xs
}

// New validates and defaults the configuration and lays out its
// decomposition; it panics on a non-square process count.
func New(cfg Config) *App {
	q := int(math.Sqrt(float64(cfg.Procs)))
	if q*q != cfg.Procs || cfg.Procs == 0 {
		panic(fmt.Sprintf("btio: %d processes is not a square", cfg.Procs))
	}
	if cfg.Path == "" {
		cfg.Path = "/btio.out"
	}
	a := &App{cfg: cfg, q: q}
	a.xs = split(cfg.Class.N, q)
	a.pfx = make([]int, q+1)
	for i, s := range a.xs {
		a.pfx[i+1] = a.pfx[i] + s
	}
	return a
}

// split divides n into q near-equal parts, larger parts first
// (162 into 4 → 41,41,40,40 — exactly NPB's cell sizing).
func split(n, q int) []int {
	out := make([]int, q)
	base, rem := n/q, n%q
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Name is the workload's display name.
func (a *App) Name() string {
	return fmt.Sprintf("NAS BT-IO class %s %s (%d procs)", a.cfg.Class.Name, a.cfg.Subtype, a.cfg.Procs)
}

// Config returns the (defaulted) configuration the app runs.
func (a *App) Config() Config { return a.cfg }

// Dumps returns the number of solution dumps in the run.
func (a *App) Dumps() int { return a.cfg.Class.Steps / a.cfg.Class.WriteInterval }

// DumpBytes returns the size of one solution dump.
func (a *App) DumpBytes() int64 {
	n := int64(a.cfg.Class.N)
	return n * n * n * BytesPerPoint
}

// GridRange is one Cartesian sub-block of the solution grid owned by
// a rank: [X0,X0+NX) × [Y0,Y0+NY) × [Z0,Z0+NZ) in grid points.
type GridRange struct {
	X0, NX int
	Y0, NY int
	Z0, NZ int
}

// Decomposition returns the rank's owned sub-blocks under diagonal
// multi-partitioning, in dump emission order: rank (r,c) owns, on each
// z-layer d, the cell shifted diagonally so every layer is fully
// covered and each rank's cells sit on a space diagonal. Together with
// BytesPerPoint and the class N this fully determines the rank's file
// accesses, which is how synth.BTIOSpec derives its access lists.
func (a *App) Decomposition(rank int) []GridRange {
	r, c := rank/a.q, rank%a.q
	out := make([]GridRange, 0, a.q)
	for d := 0; d < a.q; d++ {
		cx, cy := (c+d)%a.q, (r+d)%a.q
		out = append(out, GridRange{
			X0: a.pfx[cx], NX: a.xs[cx],
			Y0: a.pfx[cy], NY: a.xs[cy],
			Z0: a.pfx[d], NZ: a.xs[d],
		})
	}
	return out
}

// FaceBytes returns the size of one boundary-exchange message (a cell
// face of the largest cell).
func (a *App) FaceBytes() int64 {
	return int64(a.xs[0]) * int64(a.xs[0]) * BytesPerPoint
}

// MessagesPerDump returns the boundary-exchange messages each rank
// sends between dumps: 24 per time step (the paper observes ~120 per
// write phase at WriteInterval 5).
func (a *App) MessagesPerDump() int { return 24 * a.cfg.Class.WriteInterval }

// ComputePerDump returns the modeled per-rank computation time between
// dumps (0 when ComputeScale is 0).
func (a *App) ComputePerDump() sim.Duration {
	if a.cfg.ComputeScale <= 0 {
		return 0
	}
	perRank := float64(a.cfg.Class.ComputeTotal) / float64(a.cfg.Procs) / float64(a.Dumps())
	return sim.Duration(perRank * a.cfg.ComputeScale)
}

// RecordsPerDump returns the per-rank record count for one dump, one
// record per (z, y) line of each owned cell (6561 for class C on 16
// procs — Table II).
func (a *App) RecordsPerDump(rank int) int {
	n := 0
	for _, g := range a.Decomposition(rank) {
		n += g.NZ * g.NY
	}
	return n
}
