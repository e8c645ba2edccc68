package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every result so a number is never read
// without the machine that produced it.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Load1      float64 `json:"load1"`
	// Link says what the load crossed: always the loopback interface,
	// never a real network.
	Link string `json:"link"`
	// Conns is the number of load-generator connections: eight per CPU,
	// counting at most four CPUs. An open loop wants more connections
	// than transactions in flight, so that a transaction which is due
	// finds a free one and only a stall of the server makes it wait.
	Conns int `json:"conns"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Link:       "loopback",
	}
	h.Conns = 8 * min(h.NProc, 4)
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// cpuTimes reads the machine-wide CPU accounting of /proc/stat, in
// clock ticks: everything, and the part the hypervisor gave to other
// guests while this one wanted to run.
func cpuTimes() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		t, _ := strconv.ParseFloat(v, 64)
		total += t
		if i == 7 {
			steal = t
		}
	}
	return total, steal
}

// clockTick is the kernel's USER_HZ, in which /proc/<pid>/stat counts
// CPU time; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time the process has used so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procRSS returns the current and the peak resident set size in MB.
func procRSS(pid int) (cur, peak float64) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmRSS:":
			cur = kb / 1024
		case "VmHWM:":
			peak = kb / 1024
		}
	}
	return cur, peak
}

// selfCPU is the CPU time of the benchmark process itself, for the
// load generator's share of the machine.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
