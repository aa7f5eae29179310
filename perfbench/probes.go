package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/mpiio"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
	"ioeval/internal/workload/synth"
)

// The layer probes time each model module's public functions on
// requests shaped like the workloads' own: the page size and capacity
// of the Aohyper I/O node's page cache, the NFS transfer size, BT-IO's
// per-rank collective view, IOzone's smallest block, the RAID 5
// stripe. Each reports host ns/op and, where an optimisation is
// likely to move it, allocs/op. A module under test sits on a null
// device or filesystem where it has one, so that the probe times that
// module and not the layers below it.

// probeSizes scales the probes' operation counts.
type probeSizes struct {
	events, forks, sleeps int // sim
	cacheRounds           int // measured passes over each cache working set
	dumps                 int // BT-IO collective writes
	rpcs                  int // NFS RPCs per direction
	sends                 int // network messages
	fsWrites, raidWrites  int
	diskOps               int
	repeats               int // runs of each probe; the median is reported
}

var fullProbes = probeSizes{
	events: 400000, forks: 4000, sleeps: 200000, cacheRounds: 1, dumps: 6,
	rpcs: 12288, sends: 40000, fsWrites: 32768, raidWrites: 8192, diskOps: 20000, repeats: 3,
}

var tinyProbes = probeSizes{
	events: 2000, forks: 20, sleeps: 2000, cacheRounds: 1, dumps: 2,
	rpcs: 64, sends: 200, fsWrites: 200, raidWrites: 64, diskOps: 200, repeats: 1,
}

// probeMetric is one probe figure.
type probeMetric struct {
	name, unit string
	value      float64
}

// probeShape is the request shape of every probe, derived from the
// workloads' platform and specs.
type probeShape struct {
	cache      cache.Params // the I/O node's page cache
	rpcBytes   int64        // NFS wsize and rsize
	fsBlock    int64        // IOzone's smallest block
	stripeUnit int64        // RAID 5 stripe unit
	raidDisks  int          // RAID 5 members
	ranks      int          // BT-IO ranks
	rankVecs   [][]fs.IOVec // BT-IO per-rank extents of one dump
	dumpBytes  int64        // file bytes of one BT-IO dump
}

func shapeFor(s sizes) (probeShape, error) {
	c := buildAohyper()
	if c.Cfg.NFSClient.WSize != c.Cfg.NFSClient.RSize {
		return probeShape{}, fmt.Errorf("probe shape: NFS wsize %d differs from rsize %d", c.Cfg.NFSClient.WSize, c.Cfg.NFSClient.RSize)
	}
	sh := probeShape{
		cache:    c.IOCache.Params(),
		rpcBytes: c.Cfg.NFSClient.WSize, fsBlock: s.char.FSBlockSizes[0],
		stripeUnit: c.Cfg.StripeUnit, raidDisks: c.Cfg.RAID5Disks,
	}
	spec := synth.BTIOSpec(s.btio)
	sh.ranks = spec.Procs
	for _, ph := range spec.Phases {
		for _, st := range ph.Steps {
			if st.Op != synth.OpWrite || !st.Collective {
				continue
			}
			sh.dumpBytes = st.LoopStrideBytes
			for _, accs := range st.PerRankAccess {
				var vecs []fs.IOVec
				for _, a := range accs {
					expand(&vecs, a, a.OffsetBytes, 0)
				}
				sh.rankVecs = append(sh.rankVecs, vecs)
			}
		}
	}
	if len(sh.rankVecs) != sh.ranks {
		return probeShape{}, fmt.Errorf("probe shape: BT-IO spec has no per-rank collective write")
	}
	return sh, nil
}

// expand lists an access's blocks, outermost dimension first, in the
// order the synthetic-workload engine issues them.
func expand(out *[]fs.IOVec, a synth.AccessSpec, base int64, dim int) {
	if dim == len(a.Dims) {
		*out = append(*out, fs.IOVec{Off: base, Len: a.BlockBytes})
		return
	}
	d := a.Dims[dim]
	for i := 0; i < d.Count; i++ {
		expand(out, a, base+int64(i)*d.StrideBytes, dim+1)
	}
}

// probeResult is one probe's cost per operation.
type probeResult struct{ ns, allocs float64 }

// runProbes runs every probe s.probes.repeats times, in an order
// drawn from the seed, and reports the median of each figure.
func runProbes(s sizes, seed int64) ([]probeMetric, error) {
	sz := s.probes
	sh, err := shapeFor(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	type probe struct {
		name    string
		allocs  bool // report allocs/op too
		run     func() probeResult
		results []probeResult
	}
	probes := []*probe{
		{name: "sim.event", allocs: true, run: func() probeResult { return probeEvents(sz.events) }},
		{name: "sim.fork", allocs: true, run: func() probeResult { return probeFork(sz.forks) }},
		{name: "sim.handoff", allocs: true, run: func() probeResult { return probeHandoff(sz.sleeps) }},
		{name: "cache.miss", allocs: true, run: func() probeResult { return probeCacheRead(sh, 2*sh.cache.Capacity, sz.cacheRounds, rng.Int63()) }},
		{name: "cache.hit", run: func() probeResult { return probeCacheRead(sh, sh.cache.Capacity/2, sz.cacheRounds, rng.Int63()) }},
		{name: "cache.write", allocs: true, run: func() probeResult { return probeCacheWrite(sh, sz.cacheRounds, rng.Int63()) }},
		{name: "mpiio.coll_write", allocs: true, run: func() probeResult { return probeCollectiveWrite(sh, sz.dumps) }},
		{name: "nfs.write_rpc", run: func() probeResult { return probeNFS(sh, sz.rpcs, true) }},
		{name: "nfs.read_rpc", run: func() probeResult { return probeNFS(sh, sz.rpcs, false) }},
		{name: "netsim.send", run: func() probeResult { return probeSend(sh, sz.sends) }},
		{name: "fs.write", run: func() probeResult { return probeFSWrite(sh, sz.fsWrites) }},
		{name: "raid.raid5_write", run: func() probeResult { return probeRAID5Write(sh, sz.raidWrites) }},
		{name: "device.op", run: func() probeResult { return probeDisk(sh, sz.diskOps) }},
	}
	for r := 0; r < sz.repeats; r++ {
		for _, i := range rng.Perm(len(probes)) {
			p := probes[i]
			p.results = append(p.results, p.run())
		}
	}
	var out []probeMetric
	for _, p := range probes {
		ns := make([]float64, len(p.results))
		allocs := make([]float64, len(p.results))
		for i, r := range p.results {
			ns[i], allocs[i] = r.ns, r.allocs
		}
		if p.name != "sim.fork" {
			out = append(out, probeMetric{p.name + "_ns", "ns/op", median(ns)})
		}
		if p.allocs {
			out = append(out, probeMetric{p.name + "_allocs", "allocs/op", median(allocs)})
		}
	}
	return out, nil
}

// timeOps times body, which performs ops operations, and counts its
// heap allocations.
func timeOps(ops int, body func()) probeResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sw := startWatch()
	body()
	el := sw.elapsed()
	runtime.ReadMemStats(&m1)
	return probeResult{
		ns:     float64(el.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// timeProc times the ops operations body performs as a simulated
// process, after warm has run as one to completion.
func timeProc(e *sim.Engine, ops int, warm, body func(p *sim.Proc)) probeResult {
	if warm != nil {
		e.Spawn("probe-warm", warm)
		e.Run()
	}
	return timeOps(ops, func() {
		e.Spawn("probe", body)
		e.Run()
	})
}

// probeEvents: Engine.Schedule plus its dispatch by Run, over 16
// self-rescheduling event chains, one per BT-IO rank.
func probeEvents(n int) probeResult {
	e := sim.NewEngine()
	const chains = 16
	left := n
	var tick func()
	tick = func() {
		left--
		if left >= chains {
			e.Schedule(1, tick)
		}
	}
	return timeOps(n, func() {
		for i := 0; i < chains; i++ {
			e.Schedule(sim.Duration(i), tick)
		}
		e.Run()
	})
}

// probeFork: sim.Fork of 16 children, one per rank, each sleeping once.
func probeFork(n int) probeResult {
	e := sim.NewEngine()
	children := make([]func(*sim.Proc), 16)
	for i := range children {
		children[i] = func(p *sim.Proc) { p.Sleep(1) }
	}
	return timeProc(e, n, nil, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sim.Fork(p, "probe-fork", children...)
		}
	})
}

// probeHandoff: one Proc.Sleep round trip between a process and the
// engine.
func probeHandoff(n int) probeResult {
	e := sim.NewEngine()
	return timeProc(e, n, nil, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
}

// pageOrder returns the pages of a working set in an order drawn from
// seed; a probe walks it once to warm the cache and then again.
func pageOrder(sh probeShape, workingSet int64, seed int64) []int64 {
	pages := rand.New(rand.NewSource(seed)).Perm(int(workingSet / sh.cache.PageSize))
	offs := make([]int64, len(pages))
	for i, pg := range pages {
		offs[i] = int64(pg) * sh.cache.PageSize
	}
	return offs
}

// newProbeCache is the I/O node's page cache over a null device.
func newProbeCache(e *sim.Engine, sh probeShape) *cache.Cache {
	return cache.New(e, sh.cache, nullDev{})
}

// probeCacheRead reads one page at a time over a working set. At
// twice the capacity every read of the repeated order misses, inserts
// and evicts; at half the capacity every read hits.
func probeCacheRead(sh probeShape, workingSet int64, rounds int, seed int64) probeResult {
	e := sim.NewEngine()
	c := newProbeCache(e, sh)
	offs := pageOrder(sh, workingSet, seed)
	pass := func(p *sim.Proc) {
		r := ioreq.Reader(p)
		for _, off := range offs {
			c.ReadAt(r, off, sh.cache.PageSize)
		}
	}
	return timeProc(e, rounds*len(offs), pass, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			pass(p)
		}
	})
}

// probeCacheWrite writes one page at a time over twice the capacity:
// every write dirties a new page and forces write-back and eviction.
func probeCacheWrite(sh probeShape, rounds int, seed int64) probeResult {
	e := sim.NewEngine()
	c := newProbeCache(e, sh)
	offs := pageOrder(sh, 2*sh.cache.Capacity, seed)
	pass := func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for _, off := range offs {
			c.WriteAt(r, off, sh.cache.PageSize)
		}
	}
	return timeProc(e, rounds*len(offs), pass, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			pass(p)
		}
	})
}

// probeCollectiveWrite: every BT-IO rank calls WriteVecAll with its
// strided extents of one dump, dumps times, over null filesystems, so
// the figure is the two-phase collective itself (planning and the
// exchange over the communication network). An op is one collective
// call of all ranks.
func probeCollectiveWrite(sh probeShape, dumps int) probeResult {
	c := buildAohyper()
	w := c.NewWorld(c.RankNodes(sh.ranks))
	mounts := make([]fs.Interface, sh.ranks)
	for i := range mounts {
		mounts[i] = nullFS{}
	}
	f := mpiio.OpenFile(w, "/probe-btio", fs.OWrite|fs.OCreate, mounts, mpiio.DefaultHints())
	ranks := make([]func(*sim.Proc), sh.ranks)
	for rank := range ranks {
		ranks[rank] = func(p *sim.Proc) {
			if err := f.Open(p, rank); err != nil {
				panic(err)
			}
			vecs := make([]fs.IOVec, len(sh.rankVecs[rank]))
			for d := 0; d < dumps; d++ {
				for i, v := range sh.rankVecs[rank] {
					vecs[i] = fs.IOVec{Off: v.Off + int64(d)*sh.dumpBytes, Len: v.Len}
				}
				f.WriteVecAll(p, rank, vecs)
			}
			f.Close(p, rank)
		}
	}
	return timeProc(c.Eng, dumps, nil, func(p *sim.Proc) { sim.Fork(p, "probe-ranks", ranks...) })
}

// probeNFS issues single-RPC direct writes (or reads) from a compute
// node over a file twice the I/O node's cache, as MPI-IO does on a
// shared NFS file: each read misses the server's cache.
func probeNFS(sh probeShape, rpcs int, write bool) probeResult {
	c := buildAohyper()
	client := c.Nodes[0].NFS
	var h fs.Handle
	span := 2 * sh.cache.Capacity / sh.rpcBytes
	writeAll := func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for i := 0; i < rpcs; i++ {
			h.WriteAt(r, int64(i)%span*sh.rpcBytes, sh.rpcBytes)
		}
	}
	open := func(p *sim.Proc) {
		var err error
		h, err = client.Open(ioreq.Meta(p), "/probe-nfs", fs.ORead|fs.OWrite|fs.OCreate)
		if err != nil {
			panic(err)
		}
		if d, ok := h.(mpiio.DirectIOSetter); ok {
			d.SetDirectIO(true)
		}
		if !write {
			writeAll(p)
		}
	}
	if write {
		return timeProc(c.Eng, rpcs, open, writeAll)
	}
	return timeProc(c.Eng, rpcs, open, func(p *sim.Proc) {
		r := ioreq.Reader(p)
		for i := 0; i < rpcs; i++ {
			h.ReadAt(r, int64(i)%span*sh.rpcBytes, sh.rpcBytes)
		}
	})
}

// probeSend sends NFS-transfer-sized messages from a compute node to
// the I/O node on the data network.
func probeSend(sh probeShape, n int) probeResult {
	c := buildAohyper()
	from := c.Nodes[0].Name
	return timeProc(c.Eng, n, nil, func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for i := 0; i < n; i++ {
			c.DataNet.Send(r, from, c.IONodeName, sh.rpcBytes)
		}
	})
}

// probeFSWrite writes IOzone's smallest block sequentially through a
// local filesystem on a null device, wrapping at 1 GiB.
func probeFSWrite(sh probeShape, n int) probeResult {
	e := sim.NewEngine()
	m := fs.NewMount(e, fs.DefaultMountParams("probe-ext4"), nullDev{})
	var h fs.Handle
	open := func(p *sim.Proc) {
		var err error
		if h, err = m.Open(ioreq.Meta(p), "/probe-fs", fs.OWrite|fs.OCreate); err != nil {
			panic(err)
		}
	}
	blocks := int64(1<<30) / sh.fsBlock
	return timeProc(e, n, open, func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for i := 0; i < n; i++ {
			h.WriteAt(r, int64(i)%blocks*sh.fsBlock, sh.fsBlock)
		}
	})
}

// probeRAID5Write writes full stripes sequentially to a RAID 5 array
// of null members.
func probeRAID5Write(sh probeShape, n int) probeResult {
	e := sim.NewEngine()
	members := make([]device.BlockDev, sh.raidDisks)
	for i := range members {
		members[i] = nullDev{}
	}
	a := raid.NewRAID5(e, "probe-raid5", sh.stripeUnit, members...)
	stripe := sh.stripeUnit * int64(sh.raidDisks-1)
	return timeProc(e, n, nil, func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for i := 0; i < n; i++ {
			a.WriteAt(r, int64(i)*stripe, stripe)
		}
	})
}

// probeDisk writes stripe units sequentially to one of the I/O node's
// disks, as the RAID 5 array does to each member.
func probeDisk(sh probeShape, n int) probeResult {
	c := buildAohyper()
	d := c.IODisks[0]
	return timeProc(c.Eng, n, nil, func(p *sim.Proc) {
		r := ioreq.Writer(p)
		for i := 0; i < n; i++ {
			d.WriteAt(r, int64(i)*sh.stripeUnit, sh.stripeUnit)
		}
	})
}

// nullDev is a block device that takes no time: the layer above it is
// all a probe measures.
type nullDev struct{}

func (nullDev) ReadAt(*ioreq.Request, int64, int64)  {}
func (nullDev) WriteAt(*ioreq.Request, int64, int64) {}
func (nullDev) Flush(*ioreq.Request)                 {}
func (nullDev) Capacity() int64                      { return 1 << 50 }
func (nullDev) Name() string                         { return "null" }

// nullFS is a filesystem whose files take no time.
type nullFS struct{}

func (nullFS) Open(_ *ioreq.Request, path string, _ int) (fs.Handle, error) {
	return nullFile(path), nil
}
func (nullFS) Remove(*ioreq.Request, string) error { return nil }
func (nullFS) Stat(*ioreq.Request, string) (fs.FileInfo, error) {
	return fs.FileInfo{}, nil
}
func (nullFS) Sync(*ioreq.Request) {}
func (nullFS) Name() string        { return "null" }

type nullFile string

func (nullFile) ReadAt(_ *ioreq.Request, _, n int64) int64  { return n }
func (nullFile) WriteAt(_ *ioreq.Request, _, n int64) int64 { return n }
func (nullFile) ReadVec(_ *ioreq.Request, v []fs.IOVec) int64 {
	return vecBytes(v)
}
func (nullFile) WriteVec(_ *ioreq.Request, v []fs.IOVec) int64 {
	return vecBytes(v)
}
func (nullFile) Size() int64          { return 0 }
func (nullFile) Sync(*ioreq.Request)  {}
func (nullFile) Close(*ioreq.Request) {}
func (f nullFile) Path() string       { return string(f) }

func vecBytes(v []fs.IOVec) int64 {
	var n int64
	for _, x := range v {
		n += x.Len
	}
	return n
}

var (
	_ device.BlockDev = nullDev{}
	_ fs.Interface    = nullFS{}
	_ fs.Handle       = nullFile("")
)
