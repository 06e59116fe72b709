package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples, refusing a
// percentile fewer than minBeyond samples lie beyond: a p99 from 200
// samples is the second-largest value, not a tail estimate.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank-1], nil
}

// median is the 0.5 quantile, for small sets such as per-fault outages
// or repeated set-ups.
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}

// medianOf is median for plain numbers.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// calmest returns the third of the windows with the least stolen CPU
// time, or all of them when the host reports no steal.
func calmest(win []window) []window {
	s := append([]window(nil), win...)
	var stolen uint64
	for _, w := range s {
		stolen += w.use.steal
	}
	if stolen == 0 {
		return s
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].use.stealShare() < s[j].use.stealShare() })
	return s[:max(1, len(s)/3)]
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// snapshot holds counter readings keyed "layer.Field@source", one source
// per node, gateway, endpoint or client.
type snapshot map[string]uint64

// add records every uint64 field of a layer's Stats() value.
func (s snapshot) add(layer, source string, stats any) {
	v := reflect.ValueOf(stats)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Uint64 {
			s[layer+"."+t.Field(i).Name+"@"+source] = v.Field(i).Uint()
		}
	}
}

// delta returns per-counter increments from before to after, summed
// over sources. A source missing from before (a gateway added during
// the phase) counts from zero; a counter that went backwards belongs to
// a source that restarted, so its whole reading is new work.
func delta(before, after snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for key, a := range after {
		name, _, _ := strings.Cut(key, "@")
		if b := before[key]; a >= b {
			out[name] += a - b
		} else {
			out[name] += a
		}
	}
	return out
}

// usage is the process-level cost of a phase.
type usage struct {
	cpu      time.Duration // user + system
	alloc    uint64        // heap bytes allocated
	mallocs  uint64
	gcs      uint32
	gcCPU    float64 // seconds of GC CPU (runtime estimate)
	totalCPU float64 // seconds of all CPU (runtime estimate)
	// steal and ticks are the host's clock ticks stolen from this
	// machine's CPUs and all its CPU ticks (/proc/stat), zero where
	// unavailable.
	steal, ticks uint64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	steal, ticks := hostTicks()
	return usage{
		steal:    steal,
		ticks:    ticks,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcs:      ms.NumGC,
		gcCPU:    cpuMetrics[0].Value.Float64(),
		totalCPU: cpuMetrics[1].Value.Float64(),
	}
}

func (u usage) since(before usage) usage {
	return usage{
		cpu:      u.cpu - before.cpu,
		alloc:    u.alloc - before.alloc,
		mallocs:  u.mallocs - before.mallocs,
		gcs:      u.gcs - before.gcs,
		gcCPU:    u.gcCPU - before.gcCPU,
		totalCPU: u.totalCPU - before.totalCPU,
		steal:    u.steal - before.steal,
		ticks:    u.ticks - before.ticks,
	}
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to others while the program wanted to run.
func (u usage) stealShare() float64 { return ratio(u.steal, u.ticks) }

// hostTicks reads the aggregate cpu line of /proc/stat: the ticks stolen
// (the eighth field) and the sum of all fields.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF. Linux reports KiB.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// collect reads every layer's public counters.
func (b *bench) collect() snapshot {
	s := make(snapshot)
	for i := 0; i < b.d.Nodes(); i++ {
		n := b.d.Node(i)
		src := string(n.ID)
		s.add("totem", src, n.Totem.Stats())
		s.add("replication", src, n.RM.Stats())
	}
	for i, gw := range b.gateways() {
		s.add("core", fmt.Sprintf("gw%d", i), gw.Stats())
	}
	for _, ep := range b.udp {
		s.add("udpnet", string(ep.ID()), ep.Stats())
	}
	if !b.w.udp {
		s.add("memnet", "net", b.d.Net.Stats())
	}
	b.mu.Lock()
	clients := append(b.clients[:0:0], b.clients...)
	b.mu.Unlock()
	for i, c := range clients {
		s.add("thinclient", fmt.Sprintf("c%d", i), c.Stats())
	}
	return s
}
