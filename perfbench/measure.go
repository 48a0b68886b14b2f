package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// procSnap is the process and machine state a timed phase differences.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pause   uint64
	steal   time.Duration // summed over the machine's CPUs
}

func takeProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, _ := machineSteal()
	return procSnap{at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, numGC: ms.NumGC, pause: ms.PauseTotalNs, steal: steal}
}

// machineSteal reads the time the hypervisor ran something else while this
// machine's CPUs wanted to run (the steal column of /proc/stat, in 1/100 s
// ticks) and the number of CPUs it is summed over. It returns zeros where
// /proc/stat is absent.
func machineSteal() (time.Duration, int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var steal uint64
	cpus := 0
	for i, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if i > 0 {
			cpus++
			continue
		}
		if len(f) > 8 {
			steal, _ = strconv.ParseUint(f[8], 10, 64)
		}
	}
	return time.Duration(steal) * 10 * time.Millisecond, cpus
}

var _, machineCPUs = machineSteal()

// stealFrac is the share of the machine's CPU time between two snapshots
// that the hypervisor stole.
func stealFrac(a, b procSnap) float64 {
	wall := b.at.Sub(a.at)
	if wall <= 0 || machineCPUs == 0 {
		return 0
	}
	f := float64(b.steal-a.steal) / (float64(wall) * float64(machineCPUs))
	return math.Min(f, 0.9) // a tick can outweigh a phase of a few ms
}

// netWall is a phase's wall time minus the share the hypervisor stole: the
// time the phase would have taken had the machine kept its CPUs.
func netWall(a, b procSnap) time.Duration {
	return time.Duration(float64(b.at.Sub(a.at)) * (1 - stealFrac(a, b)))
}

// processCPU is user plus system time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC forces a collection and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler tracks the live heap of a run whose state it cannot hold
// on to from outside (a topology or a fleet session). It polls the live
// heap the collector marked in its latest cycle, which stops no goroutine
// and forces no collection, and keeps the largest value.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	max  uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := liveHeap(); v > h.max {
				h.max = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the largest live heap it saw.
// Calls after the first return the same value.
func (h *heapSampler) finish() uint64 {
	h.once.Do(func() {
		close(h.stop)
		h.wg.Wait()
	})
	return h.max
}

func mb(bytes uint64, base uint64) float64 {
	return (float64(bytes) - float64(base)) / (1 << 20)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
