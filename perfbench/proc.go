package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fattree"
)

// clockTicksPerSecond is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicksPerSecond = 100

// parseMemStats reads the "# Key = value" block that
// /debug/pprof/allocs?debug=1 appends (runtime.MemStats). Scalar numeric
// fields are returned; arrays (PauseNs) and pairs (Stack = a / b) are skipped.
func parseMemStats(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			inBlock = true
			continue
		}
		if !inBlock || !strings.HasPrefix(line, "# ") {
			continue
		}
		key, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[key] = v
		}
	}
	return out
}

// counters sums a scrape's samples per metric name across every label set,
// plus per name{tenant="t"} for the per-tenant conservation check.
type counters map[string]float64

// sumCounters folds parsed exposition samples into counters.
func sumCounters(samples []fattree.PromSample) counters {
	c := counters{}
	for _, s := range samples {
		c[s.Name] += s.Value
		if t := s.Label("tenant"); t != "" {
			c[s.Name+"{tenant="+t+"}"] += s.Value
		}
	}
	return c
}

// delta returns after - before for every key of after: the counters' growth
// over a window, which charges nothing done before the window to it.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// checkConservation enforces the per-tenant law offered == delivered +
// dropped + deferred on a scrape, returning one error per violating tenant.
func checkConservation(c counters, tenants []string) []error {
	var errs []error
	for _, t := range tenants {
		k := "{tenant=" + t + "}"
		off := c["fattree_messages_offered_total"+k]
		rest := c["fattree_messages_delivered_total"+k] + c["fattree_messages_dropped_total"+k] +
			c["fattree_messages_deferred_total"+k]
		if off != rest {
			errs = append(errs, fmt.Errorf("tenant %s: offered %v != delivered+dropped+deferred %v", t, off, rest))
		}
	}
	return errs
}

// procStatusField returns the value of a field of /proc/<pid>/status.
func procStatusField(pid int, field string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// procStatus returns a "VmHWM"-style field of /proc/<pid>/status in kB.
func procStatus(pid int, field string) (float64, error) {
	v, err := procStatusField(pid, field)
	if err != nil {
		return 0, err
	}
	kb, _, _ := strings.Cut(v, " ")
	return strconv.ParseFloat(kb, 64)
}

// benchCPU is the CPU the benchmark runs on: the last one this process may
// use, which run.sh makes the only one.
func benchCPU() (int, error) {
	list, err := procStatusField(os.Getpid(), "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(list[strings.LastIndexAny(list, ",-")+1:])
}

// procCPUSeconds returns the user+system CPU time of pid from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesized
// command name, which may itself hold spaces).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime %q %q", f[11], f[12])
	}
	return (ut + st) / clockTicksPerSecond, nil
}

// cpuSteal returns the cumulative steal time, in seconds, of one line of
// /proc/stat: "cpu" for the whole machine, "cpu3" for one CPU; 0 where
// absent.
func cpuSteal(label string) float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b), label)
}

// machineCPUs counts the machine's CPUs from /proc/stat's per-CPU lines;
// runtime.NumCPU counts only those the pinned benchmark may use.
func machineCPUs() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return countCPUs(string(b))
}

func countCPUs(stat string) int {
	n := 0
	for _, line := range strings.Split(stat, "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu"); ok && rest != "" && rest[0] >= '0' && rest[0] <= '9' {
			n++
		}
	}
	return n
}

// parseSteal reads the steal value (the eighth) of the /proc/stat line
// labelled label.
func parseSteal(stat, label string) float64 {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == label {
			if v, err := strconv.ParseFloat(f[8], 64); err == nil {
				return v / clockTicksPerSecond
			}
		}
	}
	return 0
}
