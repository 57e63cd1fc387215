package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/stat's CPU times on Linux.
const clockTicks = 100

// disturbedShare is the share of the machine's CPU time that others (other
// processes, or the hypervisor stealing time) may take during a measured
// interval before the interval counts as disturbed and is measured again.
const disturbedShare = 0.1

// cpuSample is one reading of the machine's busy CPU time (steal
// included) and this process's own CPU time, in seconds.
type cpuSample struct {
	at        time.Time
	busy, own float64
}

func readCPU() cpuSample {
	s := cpuSample{at: time.Now(), busy: -1}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.own = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return s
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return s
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	busy := 0.0
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return s
		}
		busy += v
	}
	s.busy = busy / clockTicks
	return s
}

// othersShare is the share of the machine's CPU time between two samples
// that went to anything but this process; 0 when /proc/stat is unreadable.
func othersShare(a, b cpuSample) float64 {
	wall := b.at.Sub(a.at).Seconds()
	if a.busy < 0 || b.busy < 0 || wall <= 0 {
		return 0
	}
	return max(0, (b.busy-a.busy)-(b.own-a.own)) / (float64(runtime.NumCPU()) * wall)
}
