package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPU returns the CPU time (user plus system) process pid has used
// so far: the sum of its threads' scheduler run time, which has
// nanosecond resolution where utime+stime has clock ticks.
func procCPU(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self"
// for this one).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", pid)
}
