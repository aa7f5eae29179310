// Package madbench defines the MADbench2 benchmark: the out-of-core CMB power-spectrum workload whose
// three functions move whole component matrices between memory and
// disk. In IO mode (the paper's setup: IOMETHOD=MPI, IOMODE=SYNC)
// calculations are replaced with busy-work and the D function is
// skipped, leaving the paper's three I/O phases per process:
//
//	S: 8 writes            (S_w)
//	W: 8 reads + 8 writes  (W_r, W_w)
//	C: 8 reads             (C_r)
//
// With 18 KPIX and 16 processes each operation moves a 162 MB slice
// (Table VIII); with 64 processes, 40.5 MB. FileType selects one
// shared file or one file per process (SHARED/UNIQUE).
//
// The runnable workload is synth.MadbenchSpec, which reads this
// configuration and slice geometry.
package madbench

import (
	"fmt"

	"ioeval/internal/sim"
)

// FileType selects the file layout, per MADbench2's FILETYPE option.
type FileType int

// The two layouts the paper evaluates.
const (
	Unique FileType = iota // one file per process
	Shared                 // one shared file
)

func (ft FileType) String() string {
	if ft == Unique {
		return "UNIQUE"
	}
	return "SHARED"
}

// Config parameterizes a MADbench2 run.
type Config struct {
	Procs    int // must be a perfect square (MADbench requirement)
	KPix     int // pixels = KPix × 1024 (paper: 18)
	Bins     int // component matrices (paper: 8)
	FileType FileType
	// PathPrefix for the benchmark files on shared storage.
	PathPrefix string
	// BusyWork is the per-bin busy-work time replacing calculations
	// in IO mode (0 = pure I/O).
	BusyWork sim.Duration
	// AsyncWrites disables the paper's IOMODE=SYNC behaviour (a sync
	// after every write). Default false: writes are synced, so
	// write-behind caches cannot defer the cost out of the
	// measurement window.
	AsyncWrites bool
	// UseLocal runs against each node's local filesystem instead of
	// NFS (only meaningful with Unique files).
	UseLocal bool
}

// App is a validated MADbench2 configuration.
type App struct {
	cfg Config
}

// New validates and defaults the configuration; it panics on a
// non-square process count or a SHARED file on local storage.
func New(cfg Config) *App {
	q := 1
	for q*q < cfg.Procs {
		q++
	}
	if q*q != cfg.Procs || cfg.Procs == 0 {
		panic(fmt.Sprintf("madbench: %d processes is not a square", cfg.Procs))
	}
	if cfg.KPix == 0 {
		cfg.KPix = 18
	}
	if cfg.Bins == 0 {
		cfg.Bins = 8
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/madbench"
	}
	if cfg.UseLocal && cfg.FileType == Shared {
		panic("madbench: SHARED filetype requires shared (NFS) storage")
	}
	return &App{cfg: cfg}
}

// Name is the workload's display name.
func (a *App) Name() string {
	return fmt.Sprintf("MADbench2 %s (%d procs, %d KPIX, %d bins)",
		a.cfg.FileType, a.cfg.Procs, a.cfg.KPix, a.cfg.Bins)
}

// Config returns the (defaulted) configuration the app runs.
func (a *App) Config() Config { return a.cfg }

// SliceBytes returns the per-process matrix slice (162 MB for 18 KPIX
// on 16 processes — Table VIII).
func (a *App) SliceBytes() int64 {
	npix := int64(a.cfg.KPix) * 1024
	return npix * npix * 8 / int64(a.cfg.Procs)
}
