package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a small shared VM whose effective clock
// swings by a quarter from one second to the next and drifts over minutes:
// the CPU time the server spends per request, a pure count of its own work,
// moved in lockstep with latency and throughput across ten runs of the same
// commit (spreads of 15-25 % each, 2-6 % once divided by one another). A
// number that follows the neighbours' load cannot gate a change. The swing is
// in the memory system, not the clock: a kernel of dependent loads over a
// table larger than the L2 tracks it (eight runs: explore_hit's p50 spread
// 22 % as measured, 6.6 % at the reference speed; cpu_ms_per_req 19 % and
// 2.5 %), a multiply-only kernel does not (20.7 %).
//
// So every run carries its own yardstick. A calibrator thread executes a
// fixed reference kernel in short bursts all through the run and times each
// burst on the thread's CPU clock: how fast this machine executes fixed work
// right now, whatever the program under test does. Time metrics are reported
// at the reference speed: raw x (speed during the measurement / nominal
// speed). The kernel and the nominal speed are constants of the benchmark,
// so the factor is the same for any two commits measured at the same moment
// on the same machine; the raw values stay in the run document.

const (
	// calBurstIters is the kernel length of one burst (about 2.5 ms here).
	calBurstIters = 1 << 16
	// calPause is the sleep between bursts: the calibrator takes about a
	// fifth of one core, the same on every commit.
	calPause = 10 * time.Millisecond
	// calTableWords sizes the kernel's table at 2 MiB: past the L2, so
	// contention for the shared cache shows as it does in the server.
	calTableWords = 1 << 18
	// nominalSpeed is the kernel's speed, in iterations per CPU-microsecond,
	// on the box the bounds were chosen on at its typical clock. It only
	// fixes the scale: at this speed reported and raw values coincide.
	nominalSpeed = 25.0
)

type calSample struct {
	at    time.Time
	speed float64 // kernel iterations per microsecond of thread CPU time
}

type calibrator struct {
	mu      sync.Mutex
	samples []calSample
	stop    chan struct{}
	done    chan struct{}
	sink    uint64
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// startCalibrator begins bursting on a thread of its own.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		table := make([]uint64, calTableWords)
		for i := range table {
			table[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		x := uint64(1)
		for {
			select {
			case <-c.stop:
				c.sink = x
				return
			default:
			}
			t0 := threadCPU()
			// Dependent loads over the table: memory latency under whatever
			// the neighbours are doing to the shared cache.
			for i := 0; i < calBurstIters; i++ {
				x = x*0xbf58476d1ce4e5b9 + table[(x>>20)&(calTableWords-1)]
			}
			if took := threadCPU() - t0; took > 0 {
				c.mu.Lock()
				c.samples = append(c.samples, calSample{time.Now(), calBurstIters / (float64(took) / float64(time.Microsecond))})
				c.mu.Unlock()
			}
			time.Sleep(calPause)
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// speedBetween is the median burst speed over a window of the run.
func (c *calibrator) speedBetween(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s.speed)
		}
	}
	return median(in)
}

// atReference converts a duration-like value measured while the machine ran
// the kernel at speed to what it would read at the nominal speed. A rate is
// converted with the inverse factor. A window without a burst (a run shorter
// than the pause) leaves the value as measured.
func atReference(raw, speed float64) float64 {
	if speed <= 0 {
		return raw
	}
	return raw * speed / nominalSpeed
}

func rateAtReference(raw, speed float64) float64 {
	if speed <= 0 {
		return raw
	}
	return raw * nominalSpeed / speed
}
