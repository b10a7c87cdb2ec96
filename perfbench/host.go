package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the machine a result was measured on.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	FsyncUS    float64 `json:"fsync_us"`
}

func hostFacts(dir string) (host, error) {
	fs, err := fsyncP50(dir)
	if err != nil {
		return host{}, err
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		FsyncUS:    fs,
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsyncP50 is the disk calibration reading: the median of 300 appends of a
// 300-byte record, each followed by fsync, in dir. It tells a slower disk
// apart from a slower program when journal-bound numbers move.
func fsyncP50(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := bytes.Repeat([]byte{'x'}, 299)
	rec = append(rec, '\n')
	us := make([]float64, 0, 300)
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// stealSeconds is the CPU time the hypervisor has taken from this machine's
// CPUs since boot (the steal column of /proc/stat, at the usual 100 ticks
// per second); 0 where it is not reported.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak resident count (VmHWM) from the
// current resident set, so that the peak of one phase can be read; it
// reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSample reads the clocks and runtime counters a phase's metrics are
// differences of: wall time, this process's CPU time, the CPU time the
// hypervisor stole from the machine, and the runtime's allocation and GC
// counters.
type rtSample struct {
	wall       time.Time
	cpu, steal float64
	allocBytes uint64
	gcCPU, all float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rtSample{wall: time.Now(), cpu: cpuSeconds(), steal: stealSeconds()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.all = s[2].Value.Float64()
	}
	return out
}

// netFactor is the share of the CPU time asked for between a and b that was
// granted: this process's CPU time over itself plus the time the hypervisor
// stole meanwhile. The machine runs nothing else of note, so the stolen
// time is time this process waited for a CPU it had asked for.
func netFactor(a, b rtSample) float64 { return grantedShare(b.cpu-a.cpu, b.steal-a.steal) }

// grantedShare is cpu / (cpu + steal), 1 when either is not positive.
func grantedShare(cpu, steal float64) float64 {
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// netSeconds is the wall time from a to b net of hypervisor steal: what the
// phase would have taken had the host not taken its CPUs away. With no
// steal it is the wall time. On a shared virtual machine the steal share
// moves from one minute to the next by tens of percent, and raw wall time
// with it; net time holds still.
func netSeconds(a, b rtSample) float64 {
	return b.wall.Sub(a.wall).Seconds() * netFactor(a, b)
}

// phase is the runtime per-layer readings of one measured phase: bytes
// allocated, the GC's share of CPU, and CPU use over all cores.
type phase struct {
	AllocMB   float64 `json:"alloc_mb"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	CPUUtil   float64 `json:"cpu_util"`
}

func phaseBetween(a, b rtSample) phase {
	p := phase{AllocMB: float64(b.allocBytes-a.allocBytes) / (1 << 20)}
	if d := b.all - a.all; d > 0 {
		p.GCCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	if wall := b.wall.Sub(a.wall).Seconds(); wall > 0 {
		p.CPUUtil = (b.cpu - a.cpu) / (float64(runtime.NumCPU()) * wall)
	}
	return p
}

func (r *run) setPhase(p phase) {
	r.set("runtime.alloc_mb", p.AllocMB, "MB")
	r.set("runtime.gc_cpu_frac", p.GCCPUFrac, "ratio")
	r.set("sweep.cpu_util", p.CPUUtil, "ratio")
}
