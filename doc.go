// Package ioeval reproduces "Methodology for Performance Evaluation
// of the Input/Output System on Computer Clusters" (Méndez, Rexachs,
// Luque; IEEE CLUSTER 2011) as a self-contained Go library: a
// discrete-event cluster I/O simulator (disks, RAID, page caches,
// Gigabit Ethernet, NFS, an MPI-IO analogue), the paper's two
// application workloads (NAS BT-IO and MADbench2), the
// characterization benchmarks (IOzone- and IOR-like, plus b_eff_io), and
// the methodology itself (internal/core): per-level performance
// tables, the table-search algorithm, used-percentage generation and
// the three-phase evaluation flow.
//
// The benchmark harness in bench_test.go regenerates every table and
// figure of the paper's evaluation; see DESIGN.md for the experiment
// index and EXPERIMENTS.md for paper-vs-measured shapes.
package ioeval
