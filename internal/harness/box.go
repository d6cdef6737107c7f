package harness

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// box is what the machine was doing at one instant, read round a live run
// so that its verdict can say what the box cost it: this process's CPU
// time, and the system's CPU ticks in all and stolen by the hypervisor.
type box struct {
	cpu          time.Duration // -1 where getrusage is unavailable
	total, steal uint64        // 0 where /proc/stat is unreadable
}

func readBox() box {
	b := box{cpu: processCPU()}
	if stat, err := os.ReadFile("/proc/stat"); err == nil {
		b.total, b.steal, _ = parseProcStat(stat)
	}
	return b
}

// cpuMS is this process's CPU time from b to end, in milliseconds; -1 when
// unknown.
func (b box) cpuMS(end box) int64 {
	if b.cpu < 0 || end.cpu < 0 {
		return -1
	}
	return (end.cpu - b.cpu).Milliseconds()
}

// stealPct is the share of the system's CPU time stolen from b to end, in
// percent; -1 when unknown (no /proc/stat, as off Linux, or no tick
// elapsed), never 0 for want of data.
func (b box) stealPct(end box) float64 {
	if b.total == 0 || end.total <= b.total {
		return -1
	}
	return 100 * float64(end.steal-b.steal) / float64(end.total-b.total)
}

// parseProcStat reads the aggregate "cpu" line of a /proc/stat snapshot:
// the sum of its first eight tick columns, user to steal, and the eighth,
// steal (guest time, after it, is already counted in user). ok is false
// when the line is missing or too short to hold steal.
func parseProcStat(stat []byte) (total, steal uint64, ok bool) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for _, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total, steal = total+v, v
	}
	return total, steal, true
}
