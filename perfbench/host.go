package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file reads the host and the process from outside: /proc for CPU,
// resident memory and steal time, runtime/metrics for the Go runtime,
// and a fixed calibration loop for the speed of the machine itself.

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// procStat returns a process's user+system CPU and its resident set in
// bytes, from /proc/<pid>/stat.
func procStat(pid int) (cpu time.Duration, rss int64, ok bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, 0, false
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, false
	}
	// Fields after the comm: state(3) ppid(4) ... utime(14) stime(15) ...
	// rss(24), numbered per proc(5).
	f := strings.Fields(s[i+1:])
	if len(f) < 22 {
		return 0, 0, false
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	pages, _ := strconv.ParseInt(f[21], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick, pages * int64(os.Getpagesize()), true
}

// selfCPU is this process's CPU plus that of its reaped children
// (recycled workers land here once the pool waits for them).
func selfCPU() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// selfRSS is this process's current resident set in bytes.
func selfRSS() int64 {
	_, rss, _ := procStat(os.Getpid())
	return rss
}

// cpuMeter measures the CPU of this process plus its live worker
// children over a window. Children alive at the start contribute only
// their CPU since then; children that exit during the window are
// counted through RUSAGE_CHILDREN once reaped.
type cpuMeter struct {
	self time.Duration
	kids map[int]time.Duration
	pids func() []int
}

func startCPU(pids func() []int) *cpuMeter {
	m := &cpuMeter{self: selfCPU(), kids: map[int]time.Duration{}, pids: pids}
	for _, pid := range pids() {
		if c, _, ok := procStat(pid); ok {
			m.kids[pid] = c
		}
	}
	return m
}

// used returns the CPU consumed since startCPU.
func (m *cpuMeter) used() time.Duration {
	total := selfCPU() - m.self
	live := map[int]bool{}
	for _, pid := range m.pids() {
		live[pid] = true
		if c, _, ok := procStat(pid); ok {
			total += c - m.kids[pid]
		}
	}
	// A child alive at the start and reaped since is in RUSAGE_CHILDREN
	// with its whole lifetime; take back what it had already used.
	for pid, c := range m.kids {
		if !live[pid] {
			total -= c
		}
	}
	return total
}

// rssSampler tracks the peak of (own RSS + live worker RSS) by polling.
type rssSampler struct {
	pids     func() []int
	stop     chan struct{}
	done     chan struct{}
	peak     int64
	workerMB []float64 // per-sample sum of worker RSS
}

const rssInterval = 20 * time.Millisecond

func startRSS(pids func() []int) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	pids := s.pids()
	var workers int64
	for _, pid := range pids {
		if _, rss, ok := procStat(pid); ok {
			workers += rss
		}
	}
	s.peak = max(s.peak, selfRSS()+workers)
	if len(pids) > 0 {
		s.workerMB = append(s.workerMB, float64(workers)/(1<<20))
	}
}

// finish stops the sampler, takes one last sample and returns the peak
// in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / (1 << 20)
}

// cpuTimes is the host-wide steal and total CPU time from /proc/stat.
type cpuTimes struct{ steal, total int64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var ct cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			ct.total += n
		}
		if i == 7 {
			ct.steal = n
		}
	}
	return ct
}

// stealShare is the share of all CPU time the hypervisor stole from
// this VM between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// calibrate times a fixed single-threaded integer loop and returns the
// median of five timings in microseconds. It does the same work on every
// run, so a change in its time is a change in the machine.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ts)
}

var calibSink uint64

// runtimeSample reads the Go runtime counters the per-layer metrics use.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// hostFacts describes the machine a run measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHostFacts() hostFacts {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}
