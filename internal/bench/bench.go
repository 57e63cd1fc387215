// Package bench stamps benchmark output with the machine it was measured
// on. Wall-time and allocation numbers are only comparable between runs on
// the same hardware, so perfbench records the host next to its metrics.
package bench

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Host describes the machine a measurement was taken on.
type Host struct {
	// CPUModel is the CPU's self-reported model name ("" when the
	// platform doesn't expose one).
	CPUModel string `json:"cpu_model,omitempty"`
	// NumCPU is runtime.NumCPU at measurement time.
	NumCPU int `json:"num_cpu,omitempty"`
	// OS and Arch are runtime.GOOS / runtime.GOARCH.
	OS   string `json:"os,omitempty"`
	Arch string `json:"arch,omitempty"`
}

// CurrentHost describes the machine this process runs on. The CPU model
// is read best-effort from /proc/cpuinfo (Linux); elsewhere it stays
// empty and the remaining fields still pin the host down.
func CurrentHost() Host {
	return Host{
		CPUModel: cpuModel(),
		NumCPU:   runtime.NumCPU(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
	}
}

// cpuModel extracts the first "model name" entry from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "model name") {
			continue
		}
		if _, val, ok := strings.Cut(line, ":"); ok {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
