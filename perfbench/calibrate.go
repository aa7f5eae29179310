package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The host this benchmark runs on may be shared: its speed can drift
// by tens of percent over seconds to minutes with the load of other
// tenants, and the drift moves CPU time as much as wall time (a fixed
// integer loop was measured to take anywhere from 0.63 s to 1.15 s on
// one 2-vCPU virtual machine, with no steal time reported). A run
// therefore measures the host's speed beside its timed phases with a
// calibration kernel, and reports host times rescaled to a fixed
// reference speed.
//
// The kernel is a fixed amount of work shaped like the simulator's: a
// discrete-event calendar on a binary heap, small allocations and map
// lookups. It has two passes: one keeps a small calendar in a steady
// state, where events are scheduled and dispatched; the other only
// schedules, filling tens of MB of fresh heap, as a simulation does
// while it builds up its state. That second pass follows the host's
// drift most closely: the drift is largest in allocating fresh memory.
// Each sample runs both passes calRepeats times, each on a freshly
// collected heap. The kernel calls nothing in the program, so a change
// to the program never changes it.

// Sizes of the kernel's two passes: events scheduled and how many may
// stay pending (the filling pass never dispatches one).
const (
	calSteadyEvents, calSteadyLive = 100_000, 1 << 14
	calFillEvents, calFillLive     = 125_000, 1 << 17
	calRepeats                     = 3
)

// referenceCalibration is the kernel's time at the reference speed, so
// that a rescaled host time is the one the reference host would take:
// a 2-vCPU virtual machine on a 2.1 GHz Xeon.
const referenceCalibration = 450 * time.Millisecond

// calibrate times one sample of the kernel.
func calibrate() time.Duration {
	var d time.Duration
	for i := 0; i < calRepeats; i++ {
		for _, pass := range [][2]int{{calSteadyEvents, calSteadyLive}, {calFillEvents, calFillLive}} {
			runtime.GC()
			sw := startWatch()
			calibrationSink += calibrationWork(pass[0], pass[1])
			d += sw.elapsed()
		}
	}
	return d
}

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64

// slowdown is how much slower than the reference speed the host ran,
// from the mean of a window of calibration samples.
func slowdown(cals []time.Duration) float64 {
	var sum time.Duration
	for _, c := range cals {
		sum += c
	}
	return sum.Seconds() / float64(len(cals)) / referenceCalibration.Seconds()
}

// calibrationWork schedules events on a calendar, keeping live of them
// pending, and returns a checksum that depends only on its arguments.
func calibrationWork(events, live int) uint64 {
	var h calHeap
	index := make(map[int]*calEvent, live)
	x := uint64(0x9E3779B97F4A7C15)
	var now int64
	var sum uint64
	for i := 0; i < events; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e := &calEvent{at: now + int64(x%4096), id: i, payload: make([]byte, 32+x%224)}
		e.payload[0] = byte(x)
		heap.Push(&h, e)
		index[i] = e
		if h.Len() > live {
			d := heap.Pop(&h).(*calEvent)
			now = d.at
			delete(index, d.id)
			if o, ok := index[int(x%uint64(events))]; ok {
				sum += uint64(o.payload[0])
			}
			sum = sum*31 + uint64(d.at) + uint64(len(d.payload))
		}
	}
	return sum + uint64(h[0].id)
}

type calEvent struct {
	at      int64
	id      int
	payload []byte
}

// calHeap orders pending events by time, then by id.
type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].id < h[j].id
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
