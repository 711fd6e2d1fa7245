package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuStat is the machine's CPU time from the aggregate line of /proc/stat,
// in clock ticks, summed over processors: busy time, and steal, the time
// a virtual processor wanted to run but the hypervisor ran something else.
//
// On a shared virtual machine steal comes and goes for minutes at a time.
// A serial program's wall time then grows by the stolen time while its CPU
// time does not, so wall-clock timings drift with the neighbours' load. The
// benchmark scales each wall-clock interval by the share of wanted CPU time
// that was granted, busy / (busy + steal), over that interval.
type cpuStat struct{ busy, steal int64 }

func (a cpuStat) sub(b cpuStat) cpuStat { return cpuStat{a.busy - b.busy, a.steal - b.steal} }

// granted is busy / (busy + steal), or 1 when there is nothing to scale by.
func (a cpuStat) granted() float64 {
	if a.busy <= 0 || a.steal <= 0 {
		return 1
	}
	return float64(a.busy) / float64(a.busy+a.steal)
}

// readStat reads /proc/stat; it returns zeros where that is not available,
// which leaves timings unscaled.
func readStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return parseStat(line)
}

// parseStat parses the aggregate "cpu" line: user nice system idle iowait
// irq softirq steal ... Busy time is user, nice, system, irq and softirq.
func parseStat(line string) cpuStat {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		v[i] = n
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}
