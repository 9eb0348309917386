package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The calibration spin. Every timed region of the benchmark is bracketed
// by two runs of this loop, and reported as wall × (spinRefS ÷ spin
// wall)^spinDamp: time in units of "how long this host takes to do a
// fixed amount of scalar work right now", rescaled to seconds. On a
// shared host the same pass reads 15–70% apart between runs minutes
// apart; divided by the damped spin beside it, it agrees within a few
// percent.
//
// The work is shared by GOMAXPROCS goroutines because a pass is: on the
// two-vCPU host this was sized on, a one-goroutine spin slowed by 1.8×
// in episodes that slowed every (two-thread) pass by 1.3×, so dividing
// by it over-corrected; the shared spin tracks the passes far better.
// Sharing sweeps from one counter (rather than giving each goroutine a
// fixed half) keeps the spin, like a pass, going at the speed of the
// CPU time the host hands out in total, not of its slowest thread.
//
// The loop must never change: it calls nothing outside this file and the
// standard library (in particular nothing under internal/), so no later
// PR can speed it up or slow it down and thereby move every calibrated
// metric at once.
const (
	spinElems = 16 << 10 // 64 KiB of float32 per goroutine: stays in L1/L2
	spinReps  = 9000     // sweeps, shared by all goroutines: ≈147 M multiply-adds
	spinRefS  = 0.050    // the spin's nominal duration on the reference host

	// spinDamp is the power of the spin ratio a time is scaled by. The
	// spin is all arithmetic on two busy threads, the thing a crowded host
	// slows most; a pass also waits — for memory, for a peer, for the
	// other stage — and that part does not slow with it. On the two-vCPU
	// host the episodes are a neighbour on the sibling hardware threads:
	// they double the time of a one-thread multiply-add loop, add 50–90%
	// to the spin and 7% to a dependent (latency-bound) multiply-add
	// chain. Passes land in between: conv_inproc and conv_ring_tcp slow
	// by spin^0.8–1, conv_hub_durable by spin^0.7–1, xfmr_inproc by
	// spin^0.5–0.9, wall and CPU time alike. Over six sets of runs,
	// medians of 20–25 s of one commit spread (interquartile range ÷
	// median) by up to 15% at power 1, 10% at 0.7 and 8% at 0.8.
	// README.md has the table. Like the loop, the power stays as it is:
	// changing it moves every calibrated metric at once.
	spinDamp = 0.8
)

// spinBufs holds one private buffer per spinning goroutine.
var spinBufs [][]float32

// spinSink keeps the loops' results live so the compiler cannot drop them.
var spinSink atomic.Uint32

// spinSweep is the fixed scalar float32 multiply-add loop. x ← 0.999x +
// 0.001 contracts toward 1, so values stay normal floats forever.
func spinSweep(b []float32) {
	for i := range b {
		b[i] = b[i]*0.999 + 0.001
	}
}

// spin runs the calibration loop once and returns how long it took.
// Every comparable run passes spinReps; only -quick passes fewer. It is
// called from the driver goroutine only.
func spin(reps int) elapsed {
	n := runtime.GOMAXPROCS(0)
	for len(spinBufs) < n {
		b := make([]float32, spinElems)
		for i := range b {
			b[i] = float32(i%7) * 0.125
		}
		spinBufs = append(spinBufs, b)
	}
	t := now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(b []float32) {
			defer wg.Done()
			for next.Add(1) <= int64(reps) {
				spinSweep(b)
			}
			spinSink.Store(uint32(b[0]))
		}(spinBufs[g])
	}
	wg.Wait()
	return t.since()
}

// clock is one reading of wall time and of process CPU time (user+sys
// of every thread, from getrusage).
type clock struct {
	wall time.Time
	cpu  float64
}

func now() clock {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return clock{wall: time.Now(), cpu: tv(ru.Utime) + tv(ru.Stime)}
}

// elapsed is the wall and CPU seconds between two clock readings.
type elapsed struct{ wall, cpu float64 }

func (c clock) since() elapsed {
	n := now()
	return elapsed{wall: n.wall.Sub(c.wall).Seconds(), cpu: n.cpu - c.cpu}
}

// calFactor is what a raw time measured between two spins is multiplied
// by to give calibrated seconds. CPU time is scaled by the spins' CPU
// time the same way (a spin burns GOMAXPROCS × its wall in CPU, so the
// two references differ by that factor), which cancels a host that does
// less per CPU-second.
func calFactor(before, after elapsed) elapsed {
	n := float64(runtime.GOMAXPROCS(0))
	return elapsed{
		wall: math.Pow(spinRefS/((before.wall+after.wall)/2), spinDamp),
		cpu:  math.Pow(spinRefS*n/((before.cpu+after.cpu)/2), spinDamp),
	}
}

// calibrated rescales a measured region by the two spins that bracket it.
func calibrated(region, before, after elapsed) elapsed {
	f := calFactor(before, after)
	return elapsed{wall: region.wall * f.wall, cpu: region.cpu * f.cpu}
}

// --- order statistics ---------------------------------------------------------

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
