package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/ftpim/ftpim/internal/tensor"
)

// host is the fingerprint every run prints, so a figure can be traced
// to the machine and settings that produced it.
type host struct {
	CPU           string            `json:"cpu"`
	NProc         int               `json:"nproc"`
	CPUFeatures   string            `json:"cpu_features"`
	FastSupported bool              `json:"fast_supported"`
	GoVersion     string            `json:"go_version"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	TensorWorkers int               `json:"tensor_workers"`
	DefectWorkers int               `json:"defect_workers"`
	Tiers         map[string]string `json:"tiers"` // active numerics tier per workload
}

func fingerprint(workers int, tiers map[string]string) host {
	return host{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		CPUFeatures:   tensor.CPUFeatures(),
		FastSupported: tensor.FastSupported(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TensorWorkers: tensor.Workers(),
		DefectWorkers: workers,
		Tiers:         tiers,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSample is the machine-wide busy and steal CPU ticks from the
// first line of /proc/stat (zeros where it is unavailable).
type cpuSample struct{ busy, steal uint64 }

func sampleCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i, f := range strings.Fields(line)[1:] {
		if i < len(v) {
			v[i], _ = strconv.ParseUint(f, 10, 64)
		}
	}
	return cpuSample{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of runnable CPU time the hypervisor took
// between a and b: on a shared virtual machine a vCPU that wants to run
// is descheduled for this fraction of the time, which stretches every
// wall-clock measurement by 1/(1-share).
func stealShare(a, b cpuSample) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal+busy == 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// stealClock measures the steal share of an interval, so the interval's
// times can be reported as they would read on an unshared CPU.
type stealClock struct{ c0 cpuSample }

func startClock() stealClock { return stealClock{sampleCPU()} }

// share returns the steal share since the clock started.
func (c stealClock) share() float64 { return stealShare(c.c0, sampleCPU()) }

// adjust scales a time measured since the clock started by the CPU
// share the hypervisor left to this machine, removing the first-order
// effect of other tenants' load.
func (c stealClock) adjust(v float64) float64 { return v * (1 - c.share()) }
