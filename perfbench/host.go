package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"vbi/internal/harness"
)

// hostInfo fingerprints the machine a run measured, so the ledger can
// later be normalised across hosts.
type hostInfo struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Harness    string
	// CalibMS is the median time of calibrate, in milliseconds.
	CalibMS float64
}

func fingerprint() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Harness:    harness.Version,
		CalibMS:    calibrationMS(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate is a fixed, standard-library-only kernel with the simulator's
// mix of work: random loads and stores over a table far larger than the
// host's L2, with a division for every index. A shared host's load slows
// it as it slows the simulator, if somewhat less: a lower clock, a busy
// sibling hyperthread and a contended last-level cache all show in it.
func calibrate() uint64 {
	t := calTable
	n := uint64(len(t))
	x, acc := uint64(1), uint64(0)
	for i := 0; i < calSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) % n
		acc += t[j]
		if acc&3 == 0 {
			t[j] ^= acc
		}
	}
	return acc
}

// calSteps is how many table accesses one calibrate call makes: a
// millisecond or two of work.
const calSteps = 1 << 16

// calTable is calibrate's 16 MB table. It is mapped outside the Go heap,
// so it adds nothing to the live heap the benchmark reports and nothing
// to the collector's work.
var calTable = func() []uint64 {
	const words = 2 << 20
	b, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: map calibration table: " + err.Error())
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

// calibrationMS times calibrate five times and returns the median.
func calibrationMS() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		sink ^= calibrate()
		ts = append(ts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ts)
}

// sink keeps the calibration kernel's result live.
var sink uint64

// cpuTime is the CPU time the whole process has used so far, user and
// system, on every thread (the garbage collector's included). The
// benchmark times the simulator with it rather than with the wall clock:
// while the guest kernel runs another task, or the hypervisor runs
// another guest on this vCPU, the wall clock runs on but CPU time does
// not (the kernel accounts steal time apart from task time). Most of
// what CPU time cannot remove, a slower clock or a busy sibling
// hyperthread, calibSum scales away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibRef defines the reference speed the end-to-end host seconds are
// scaled to: that of a host on which one calibrate call, made between
// jobs as the passes make it, takes calibRef of CPU time. It only sets
// the scale of the figures, and must stay fixed so that figures from
// different commits compare. (On the 2-vCPU KVM guest on an Intel Xeon
// this benchmark was written on, a call took 1.4 to 2 ms as the load on
// the shared host varied.)
const calibRef = 1000 * time.Microsecond

// calibSum accumulates the process CPU time of calibrate calls made
// between the jobs a pass measures.
type calibSum struct {
	cpu time.Duration
	n   int
}

func (c *calibSum) run() {
	t := cpuTime()
	sink ^= calibrate()
	c.cpu += cpuTime() - t
	c.n++
}

// slowdown is how much slower than the reference speed this host ran the
// kernel over the pass: its mean CPU time over calibRef. The load on a
// shared host moves the CPU time the simulator needs by tens of percent
// from one minute to the next; divided by the slowdown of the kernel run
// between its jobs, that time moves several times less.
func (c calibSum) slowdown() float64 {
	return c.cpu.Seconds() / float64(c.n) / calibRef.Seconds()
}
