package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference host's speed drifts by up to 1.7x over minutes (it
// shares its machine with other tenants; steal time stays near zero, so
// the drift is in effective instruction rate, not in lost time slices).
// Runs taken minutes apart are therefore not comparable as raw wall
// time. Every run times a fixed kernel around its set-up and at each
// calibration-window boundary (after every sweep, or every two seconds
// of replayd traffic), and reports its timings scaled to the speed at
// which the kernel takes calRef: times are divided, rates multiplied,
// by the median kernel time over calRef. Over four minutes of cold fig6
// sweeps on the reference host the kernel's time correlated 0.85 with
// the sweep time. The kernel is the benchmark's own code, so no change
// to the program can move it; the raw values are printed beside the
// scaled ones.

// calRef is the kernel's median time on the reference host in a quiet
// period; it only fixes the scale of the reported numbers.
const calRef = 50 * time.Millisecond

const (
	calArena  = 1 << 16 // nodes per goroutine: 2 MiB, beyond L2
	calTable  = 1 << 14 // open-addressing slots per goroutine
	calRounds = 5_000_000
)

type calNode struct {
	next int32
	val  uint32
	pad  [6]uint32
}

type calState struct {
	arena []calNode
	keys  []uint32
	vals  []uint32
}

var calStates = func() [clients]*calState {
	var out [clients]*calState
	for c := range out {
		s := &calState{arena: make([]calNode, calArena), keys: make([]uint32, calTable), vals: make([]uint32, calTable)}
		x := uint32(2463534242 + c)
		for i := range s.arena {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			s.arena[i].next = int32(x % calArena)
		}
		out[c] = s
	}
	return out
}()

// spin is one goroutine's share of the kernel: a pointer chase through
// its arena and an open-addressing table probe per round, allocation
// free, like the simulator's map- and pointer-heavy inner loops.
func (s *calState) spin() uint32 {
	x, sum := uint32(12345), uint32(0)
	j := int32(0)
	for i := 0; i < calRounds; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		h := (x * 2654435761) >> 18 // calTable = 1<<14
		for s.keys[h] != 0 && s.keys[h] != x {
			h = (h + 1) & (calTable - 1)
		}
		s.keys[h] = x
		s.vals[h] += sum
		sum += s.vals[(h+7)&(calTable-1)]
		j = s.arena[j].next
		s.arena[j].val += sum
		if i&4095 == 0 {
			clear(s.keys) // keep the table from filling up
		}
	}
	return sum
}

// kernel runs the calibration kernel on every client CPU at once, n
// times after a garbage collection, and returns the median time.
func kernel(n int) time.Duration {
	runtime.GC()
	ds := make([]time.Duration, n)
	for r := range ds {
		t0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(clients)
		for g := 0; g < clients; g++ {
			go func(s *calState) {
				defer wg.Done()
				s.spin()
			}(calStates[g])
		}
		wg.Wait()
		ds[r] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

// speed is a kernel time as a slowdown against the reference speed.
func speed(k time.Duration) float64 { return float64(k) / float64(calRef) }
