package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// takes a varying share of the machine's time (steal). That time is taken
// out of every operation long enough to measure it over, and each round
// prints the share, so runs can be compared under similar conditions.

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in clock
// ticks: time the guest ran anything, sat idle, or lost to the hypervisor
// (steal).
type hostCPU struct{ busy, idle, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostCPU{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}, nil
}

// stealShare is the share of machine time the hypervisor took between a
// and b, and how many clock ticks that share was measured over.
func stealShare(a, b hostCPU) (float64, int64) {
	total := (b.busy - a.busy) + (b.idle - a.idle) + (b.steal - a.steal)
	if total <= 0 {
		return 0, 0
	}
	return float64(b.steal-a.steal) / float64(total), total
}

// minSteadyTicks is the fewest clock ticks (10 ms of one CPU each) a
// steal share is trusted over: shorter intervals see too few ticks.
const minSteadyTicks = 20

// stealClock times an operation and measures the share of machine time
// the hypervisor took (steal) while it ran. Operations too short to measure
// steal over report a share of 0.
type stealClock struct {
	t0 time.Time
	h0 hostCPU
	ok bool
}

func (c *stealClock) start() {
	var err error
	c.h0, err = readHostCPU()
	c.ok = err == nil
	c.t0 = time.Now()
}

// stop returns the duration since start and the steal share over it.
func (c *stealClock) stop() (time.Duration, float64) {
	d := time.Since(c.t0)
	h1, err := readHostCPU()
	if !c.ok || err != nil {
		return d, 0
	}
	if share, ticks := stealShare(c.h0, h1); ticks >= minSteadyTicks {
		return d, share
	}
	return d, 0
}

// withoutSteal returns what a value measured while the hypervisor took a
// share s of machine time would read without steal, given the slope b of
// log(value) against log(1 − s): −1 for work that slows in proportion to
// the time taken from it, fitted elsewhere (see stealSlopes).
func withoutSteal(v, s, b float64) float64 { return v / math.Pow(1-s, b) }

// launchSlope is b for a cold launch of caai-serve, fitted over 840
// launches on the 2-vCPU VM the bounds were measured on (README.md): a
// launch trains the model on both CPUs and slows more than in proportion
// to steal.
const launchSlope = -1.75
