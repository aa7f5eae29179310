// Package cache models an operating-system page/buffer cache sitting
// between a filesystem and a block device. It implements LRU
// replacement, write-back with dirty throttling (the Linux
// dirty_ratio mechanism), write-through mode, and sequential
// read-ahead. The cache is itself a device.BlockDev so it stacks
// transparently over a disk or RAID array.
//
// The cache is what produces the paper's two headline cache effects:
// characterization runs use files of twice RAM so that the cache
// thrashes and measured rates reflect the device, while applications
// whose working set fits in RAM exceed the characterized rates
// (used percentage > 100%).
package cache

import (
	"container/list"
	"fmt"
	"slices"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Policy selects how writes propagate to the underlying device.
type Policy int

// Write policies.
const (
	// WriteBack buffers dirty pages and writes them out on eviction,
	// throttling, or Flush.
	WriteBack Policy = iota
	// WriteThrough writes to the device immediately while also
	// populating the cache for subsequent reads.
	WriteThrough
)

func (p Policy) String() string {
	if p == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Params configures a Cache.
type Params struct {
	Name     string
	Capacity int64 // bytes of cacheable memory
	PageSize int64 // bytes per page (power of two)
	Policy   Policy

	// MemRate is the memory-copy bandwidth (bytes/s) charged for
	// moving data between the cache and the requester.
	MemRate float64

	// ReadAhead is the extra bytes fetched past a missing run when the
	// access continues a sequential pattern. Zero disables read-ahead.
	ReadAhead int64

	// DirtyRatio is the fraction of capacity that may be dirty before
	// a writer is throttled into synchronous write-out (flushing down
	// to DirtyRatio/2). Zero means default 0.20.
	DirtyRatio float64
}

// DefaultParams returns a page-cache configuration typical of a Linux
// node with the given cacheable memory.
func DefaultParams(name string, capacity int64) Params {
	return Params{
		Name:       name,
		Capacity:   capacity,
		PageSize:   64 << 10,
		Policy:     WriteBack,
		MemRate:    2.5e9,
		ReadAhead:  512 << 10,
		DirtyRatio: 0.20,
	}
}

type page struct {
	idx   int64
	dirty bool
	elem  *list.Element
}

// Stats counts cache activity.
type Stats struct {
	HitBytes, MissBytes   int64
	ReadOps, WriteOps     int64
	WriteBackBytes        int64
	ReadAheadBytes        int64
	ThrottleStalls        int64
	Evictions, DirtyEvict int64
}

// Cache is an LRU page cache over a block device.
type Cache struct {
	eng    *sim.Engine
	params Params
	under  device.BlockDev
	pages  map[int64]*page
	lru    *list.List // front = most recent
	nDirty int64      // dirty pages

	// lastReadEnd is the byte after the most recent read; read-ahead
	// fires only when a read continues from here (Linux read-ahead
	// switches itself off for random access).
	lastReadEnd int64

	// Stats accumulates hit/miss and write-back counters.
	Stats Stats

	rec *telemetry.Recorder
}

var _ device.BlockDev = (*Cache)(nil)

// New builds a cache over the given device.
func New(e *sim.Engine, params Params, under device.BlockDev) *Cache {
	if params.PageSize <= 0 || params.PageSize&(params.PageSize-1) != 0 {
		panic(fmt.Sprintf("cache %q: page size %d not a power of two", params.Name, params.PageSize))
	}
	if params.Capacity < params.PageSize {
		panic(fmt.Sprintf("cache %q: capacity %d below one page", params.Name, params.Capacity))
	}
	if params.MemRate <= 0 {
		panic(fmt.Sprintf("cache %q: MemRate must be positive", params.Name))
	}
	if params.DirtyRatio == 0 {
		params.DirtyRatio = 0.20
	}
	return &Cache{
		eng:    e,
		params: params,
		under:  under,
		pages:  map[int64]*page{},
		lru:    list.New(),
		rec:    telemetry.NewRecorder(e, "cache:"+params.Name, telemetry.LevelCache, 1),
	}
}

// Telemetry returns the cache's telemetry probe.
func (c *Cache) Telemetry() *telemetry.Recorder { return c.rec }

// Name implements device.BlockDev.
func (c *Cache) Name() string { return c.params.Name }

// Capacity implements device.BlockDev (the capacity of the underlying
// device, not of the cache memory).
func (c *Cache) Capacity() int64 { return c.under.Capacity() }

// Under returns the wrapped device.
func (c *Cache) Under() device.BlockDev { return c.under }

// Params returns the cache configuration.
func (c *Cache) Params() Params { return c.params }

// CachedBytes returns the bytes currently resident.
func (c *Cache) CachedBytes() int64 { return int64(len(c.pages)) * c.params.PageSize }

// DirtyBytes returns the dirty bytes awaiting write-back.
func (c *Cache) DirtyBytes() int64 { return c.nDirty * c.params.PageSize }

func (c *Cache) maxPages() int64 { return c.params.Capacity / c.params.PageSize }

func (c *Cache) memCopy(p *sim.Proc, n int64) {
	p.Sleep(sim.Duration(float64(n) / c.params.MemRate * 1e9))
}

// touch moves pg to the MRU position.
func (c *Cache) touch(pg *page) { c.lru.MoveToFront(pg.elem) }

// insert adds a page, evicting as needed. Returns the page.
// Eviction of a dirty page synchronously writes it to the device.
func (c *Cache) insert(r *ioreq.Request, idx int64, dirty bool) *page {
	if pg, ok := c.pages[idx]; ok {
		if dirty && !pg.dirty {
			pg.dirty = true
			c.nDirty++
		}
		c.touch(pg)
		return pg
	}
	for int64(len(c.pages)) >= c.maxPages() {
		c.evictLRU(r)
	}
	// evictLRU may have slept (dirty write-back), letting another
	// process insert this very page meanwhile — re-check before
	// creating a duplicate (which would orphan an LRU entry).
	if pg, ok := c.pages[idx]; ok {
		if dirty && !pg.dirty {
			pg.dirty = true
			c.nDirty++
		}
		c.touch(pg)
		return pg
	}
	pg := &page{idx: idx, dirty: dirty}
	pg.elem = c.lru.PushFront(pg)
	c.pages[idx] = pg
	if dirty {
		c.nDirty++
	}
	return pg
}

func (c *Cache) evictLRU(r *ioreq.Request) {
	back := c.lru.Back()
	if back == nil {
		panic("cache: eviction with empty LRU")
	}
	pg := back.Value.(*page)
	c.Stats.Evictions++
	c.rec.Add("evictions", 1)
	if pg.dirty {
		c.Stats.DirtyEvict++
		c.rec.Add("dirty_evictions", 1)
		// Writing back a single page would be pathological on parity
		// arrays (one read-modify-write per 64 KB). Like the kernel
		// flusher, cluster the write-back: take the victim's whole
		// contiguous dirty neighbourhood in one I/O.
		idxs := []int64{pg.idx}
		for i := pg.idx - 1; ; i-- {
			if n, ok := c.pages[i]; ok && n.dirty {
				idxs = append(idxs, i)
			} else {
				break
			}
		}
		for i := pg.idx + 1; ; i++ {
			if n, ok := c.pages[i]; ok && n.dirty {
				idxs = append(idxs, i)
			} else {
				break
			}
		}
		c.writeOut(r, idxs)
	}
	// Always unlink the popped element (Remove is a no-op if a
	// concurrent eviction already did); only drop the map entry when
	// it still refers to this page object.
	c.lru.Remove(pg.elem)
	if cur, ok := c.pages[pg.idx]; ok && cur == pg {
		delete(c.pages, pg.idx)
	}
}

// writeOut writes the given page indices (merged into contiguous
// runs) to the underlying device. Pages are claimed — marked clean —
// *before* the device writes are issued, the analogue of the kernel's
// PG_writeback flag: a concurrent flusher that runs while this one is
// blocked in the device must not write the same pages again. Pages
// re-dirtied during the flight simply get written by a later flush.
func (c *Cache) writeOut(r *ioreq.Request, idxs []int64) {
	claimed := idxs[:0]
	for _, idx := range idxs {
		if pg, ok := c.pages[idx]; ok && pg.dirty {
			pg.dirty = false
			c.nDirty--
			claimed = append(claimed, idx)
		}
	}
	if len(claimed) == 0 {
		return
	}
	slices.Sort(claimed)
	ps := c.params.PageSize
	runStart := claimed[0]
	runLen := int64(1)
	flushRun := func(start, count int64) {
		off := start * ps
		n := count * ps
		if off+n > c.under.Capacity() {
			n = c.under.Capacity() - off
		}
		c.under.WriteAt(r, off, n)
		c.Stats.WriteBackBytes += n
		c.rec.Add("writeback_bytes", n)
	}
	for _, idx := range claimed[1:] {
		if idx == runStart+runLen {
			runLen++
			continue
		}
		flushRun(runStart, runLen)
		runStart, runLen = idx, 1
	}
	flushRun(runStart, runLen)
}

// pageRange returns the first and one-past-last page index covering
// [off, off+n).
func (c *Cache) pageRange(off, n int64) (int64, int64) {
	ps := c.params.PageSize
	return off / ps, (off + n + ps - 1) / ps
}

// ReadAt implements device.BlockDev. Missing page runs are fetched
// from the underlying device (with read-ahead when the run is large
// enough to look sequential); resident pages cost memory-copy time.
func (c *Cache) ReadAt(r *ioreq.Request, off, n int64) {
	if n == 0 {
		return
	}
	r.Push(telemetry.LevelCache, "cache:"+c.params.Name)
	defer r.Pop()
	p := r.Proc()
	c.Stats.ReadOps++
	c.rec.Enter()
	start0 := p.Now()
	defer func() {
		c.rec.Observe(telemetry.ClassRead, 1, n, sim.Duration(p.Now()-start0))
		c.rec.Exit()
	}()
	first, last := c.pageRange(off, n)
	ps := c.params.PageSize
	streaming := off == c.lastReadEnd
	c.lastReadEnd = off + n

	// Identify missing runs.
	var missStart int64 = -1
	var runs [][2]int64
	for idx := first; idx < last; idx++ {
		if pg, ok := c.pages[idx]; ok {
			c.touch(pg)
			if missStart >= 0 {
				runs = append(runs, [2]int64{missStart, idx})
				missStart = -1
			}
		} else if missStart < 0 {
			missStart = idx
		}
	}
	if missStart >= 0 {
		runs = append(runs, [2]int64{missStart, last})
	}

	var missBytes int64
	for _, mr := range runs {
		start, end := mr[0], mr[1]
		// Read-ahead: extend the last run if it reaches the end of the
		// request and the request continues a sequential stream.
		extra := int64(0)
		if streaming && c.params.ReadAhead > 0 && end == last {
			extra = c.params.ReadAhead / ps
			maxPage := c.under.Capacity() / ps
			if end+extra > maxPage {
				extra = maxPage - end
			}
		}
		readOff := start * ps
		readN := (end + extra - start) * ps
		if readOff+readN > c.under.Capacity() {
			readN = c.under.Capacity() - readOff
		}
		// Mark pages resident before the device wait so a concurrent
		// reader does not double-fetch (models per-page I/O locking).
		for idx := start; idx < end+extra; idx++ {
			c.insert(r, idx, false)
		}
		c.under.ReadAt(r, readOff, readN)
		missBytes += (end - start) * ps
		c.Stats.ReadAheadBytes += extra * ps
	}

	hitBytes := n - min64(missBytes, n)
	c.Stats.HitBytes += hitBytes
	c.Stats.MissBytes += min64(missBytes, n)
	c.rec.Add("hit_bytes", hitBytes)
	c.rec.Add("miss_bytes", min64(missBytes, n))
	c.memCopy(p, n)
}

// WriteAt implements device.BlockDev.
func (c *Cache) WriteAt(r *ioreq.Request, off, n int64) {
	if n == 0 {
		return
	}
	r.Push(telemetry.LevelCache, "cache:"+c.params.Name)
	defer r.Pop()
	p := r.Proc()
	c.Stats.WriteOps++
	c.rec.Enter()
	start0 := p.Now()
	defer func() {
		c.rec.Observe(telemetry.ClassWrite, 1, n, sim.Duration(p.Now()-start0))
		c.rec.Exit()
	}()
	first, last := c.pageRange(off, n)
	c.memCopy(p, n)

	if c.params.Policy == WriteThrough {
		for idx := first; idx < last; idx++ {
			c.insert(r, idx, false)
		}
		c.under.WriteAt(r, off, n)
		return
	}

	for idx := first; idx < last; idx++ {
		c.insert(r, idx, true)
	}
	c.throttle(r)
}

// throttle enforces the dirty ratio: when dirty pages exceed the
// threshold the writer synchronously cleans down to half the
// threshold, exactly like a task stuck in balance_dirty_pages.
func (c *Cache) throttle(r *ioreq.Request) {
	limit := int64(float64(c.maxPages()) * c.params.DirtyRatio)
	if limit < 1 {
		limit = 1
	}
	if c.nDirty <= limit {
		return
	}
	c.Stats.ThrottleStalls++
	c.rec.Add("throttle_stalls", 1)
	target := limit / 2
	// Collect dirty pages from the LRU end (oldest first).
	var victims []int64
	for e := c.lru.Back(); e != nil && c.nDirty-int64(len(victims)) > target; e = e.Prev() {
		pg := e.Value.(*page)
		if pg.dirty {
			victims = append(victims, pg.idx)
		}
	}
	c.writeOut(r, victims)
}

// Flush implements device.BlockDev: write out every dirty page and
// flush the device below.
func (c *Cache) Flush(r *ioreq.Request) {
	r.Push(telemetry.LevelCache, "cache:"+c.params.Name)
	defer r.Pop()
	start0 := r.Now()
	defer func() {
		c.rec.Observe(telemetry.ClassMeta, 1, 0, sim.Duration(r.Now()-start0))
	}()
	var dirtyIdx []int64
	for idx, pg := range c.pages {
		if pg.dirty {
			dirtyIdx = append(dirtyIdx, idx)
		}
	}
	// Write back in page order: map iteration order must not reach
	// the device-level event sequence (run-to-run determinism).
	slices.Sort(dirtyIdx)
	c.writeOut(r, dirtyIdx)
	c.under.Flush(r)
}

// DropCaches discards all clean pages and write-locks nothing — the
// simulation analogue of `echo 3 > /proc/sys/vm/drop_caches`, used to
// get cold-cache characterization runs. Dirty pages are written out
// first.
func (c *Cache) DropCaches(r *ioreq.Request) {
	c.Flush(r)
	c.pages = map[int64]*page{}
	c.lru = list.New()
	c.nDirty = 0
}

// InvalidateRange drops all pages covering [off, off+n), discarding
// dirty data (callers use it for cache-coherence invalidation, where
// the remote copy is authoritative).
func (c *Cache) InvalidateRange(off, n int64) {
	first, last := c.pageRange(off, n)
	for idx, pg := range c.pages {
		if idx >= first && idx < last {
			if pg.dirty {
				pg.dirty = false
				c.nDirty--
			}
			c.lru.Remove(pg.elem)
			delete(c.pages, idx)
		}
	}
}

// Populate inserts the range as clean resident pages without device
// traffic or copy charges — the caller already moved the data (e.g.
// an NFS client caching its own just-written bytes).
func (c *Cache) Populate(r *ioreq.Request, off, n int64) {
	if n <= 0 {
		return
	}
	first, last := c.pageRange(off, n)
	for idx := first; idx < last; idx++ {
		c.insert(r, idx, false)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
