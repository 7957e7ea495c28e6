package main

import (
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
)

// Runtime metric names read around every metered call.
const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmLive     = "/gc/heap/live:bytes"
	rmCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// hostSnap is one reading of the process's CPU and Go runtime counters.
type hostSnap struct {
	cpu      time.Duration // user+sys from getrusage
	allocs   uint64
	live     uint64
	cycles   uint64
	gcCPU    float64
	cpuTotal float64
}

func readHost() hostSnap {
	var s hostSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []rtmetrics.Sample{{Name: rmAllocs}, {Name: rmLive}, {Name: rmCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	rtmetrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.live = samples[1].Value.Uint64()
	s.cycles = samples[2].Value.Uint64()
	s.gcCPU = samples[3].Value.Float64()
	s.cpuTotal = samples[4].Value.Float64()
	return s
}

// heapSampler tracks the peak live heap while a call runs. It reads
// runtime/metrics, which does not stop the world, unlike the
// runtime.ReadMemStats that metrics.PeakHeapDuring polls.
type heapSampler struct {
	done chan struct{}
	exit chan uint64
}

// heapSampleEvery is the sampler's polling period. The live-heap figure
// only changes when a GC cycle ends, so a few milliseconds catches every
// cycle of the simulator's heap sizes.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), exit: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: rmLive}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				h.exit <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak it saw, once the sampling
// goroutine has exited.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.exit
}
