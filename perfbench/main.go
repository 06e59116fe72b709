// Command perfbench is the repository's benchmark. It stands up fault
// tolerance domains through the public domain, ftmgmt and gateway API
// with the configuration cmd/ftdomaind uses by default, drives one
// seeded workload through the gateways for a fixed time, checks every
// reply and the replicated state, and prints its metrics by name with
// their units. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it reports per-layer metrics: Stats() deltas from an
// untraced run, harness-timed codec calls, and per-hop latencies from a
// second run with the obs tracer on. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. A correctness violation sets correct to false and exits 1.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload small-ring-udp --seed 7 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"eternalgw/internal/obs"
)

// commit is stamped at build time by run.sh.
var commit = "none"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the domain sees; --trace 0 reports
// exactly these in its JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics --trace 1 reports in its JSON line. Counters
// are Stats() deltas over the measured phase summed over processors,
// per successful op where the name says so. A metric a workload does not
// exercise (udpnet on memnet, outages without faults) reads 0.
var perLayer = []metricDef{
	{"totem.broadcasts_per_op", "1/op"},
	{"totem.parts_per_pack", "ratio"},
	{"totem.token_passes_per_op", "1/op"},
	{"totem.forwarded_per_op", "1/op"},
	{"totem.leader_batches_per_op", "1/op"},
	{"totem.demotions", "count"},
	{"totem.retransmits_per_op", "1/op"},
	{"totem.reconfigs", "count"},
	{"udpnet.tx_datagrams_per_op", "1/op"},
	{"udpnet.tx_per_flush", "ratio"},
	{"udpnet.rx_per_batch", "ratio"},
	{"udpnet.drops", "count"},
	{"memnet.datagrams_per_op", "1/op"},
	{"memnet.drops", "count"},
	{"replication.dup_responses_per_op", "1/op"},
	{"replication.early_discard_ratio", "ratio"},
	{"replication.checkpoints_per_kop", "1/kop"},
	{"replication.dup_invocations", "count"},
	{"replication.transfers_checkpointed", "count"},
	{"replication.transfers_full", "count"},
	{"replication.entries_replayed", "count"},
	{"core.answered_from_cache", "count"},
	{"core.reinvocations", "count"},
	{"core.abandoned", "count"},
	{"core.exceptions", "count"},
	{"thinclient.failovers", "count"},
	{"thinclient.reissues", "count"},
	{"thinclient.failover_ms", "ms"},
	{"ftmgmt.restore_s", "s"},
	{"giop.decode_request_us", "us"},
	{"giop.decode_request_alloc_b", "B"},
	{"giop.encode_reply_us", "us"},
	{"giop.encode_reply_alloc_b", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_per_kop", "1/kop"},
	{"runtime.mallocs_per_op", "1/op"},
	{"setup.domain_new_s", "s"},
	{"setup.gateway_join_s", "s"},
	{"setup.promote_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"core.ingress_us_p50", "us"},
	{"core.ingress_us_p99", "us"},
	{"core.encap_us_p50", "us"},
	{"core.encap_us_p99", "us"},
	{"totem.order_us_p50", "us"},
	{"totem.order_us_p99", "us"},
	{"replication.dispatch_us_p50", "us"},
	{"replication.dispatch_us_p99", "us"},
	{"replication.reply_us_p50", "us"},
	{"replication.reply_us_p99", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.hop_coverage", "ratio"},
	{"obs.traces", "count"},
	{"error_ratio", "ratio"},
	{"outage_node_ms", "ms"},
	{"outage_max_ms", "ms"},
	{"faults.injected", "count"},
	{"faults.recovery_errors", "count"},
	{"host.steal_pct", "%"},
	{"host.calm_steal_pct", "%"},
}

// report is everything a run prints.
type report struct {
	values            map[string]float64
	attempted, failed int
	samples           map[string]int
	setupEach         []float64 // each set-up's seconds, for the record
	// faults and sequencers describe what the domains went through, for
	// the record: each injected fault, and the leader-ordered rings'
	// sequencers.
	faults, sequencers []string
	problems           []string
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// percentile is the package percentile with a refused rank recorded as
// a problem: a run must not report a tail it did not sample.
func (r *report) percentile(samples []time.Duration, q float64) time.Duration {
	v, err := percentile(samples, q)
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	return v
}

func (r *report) add(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, f := range p.faults {
		r.faults = append(r.faults, fmt.Sprintf("%s p%02d at %.3fs healed %.3fs", f.kind, f.victim, f.at.Seconds(), f.healed.Seconds()))
	}
	if p.sequencer != "" {
		r.sequencers = append(r.sequencers, p.sequencer)
	}
	r.problems = append(r.problems, p.problems...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: small-ring-udp, large-leader, failover-gw or failover-rw")
		seed    = flag.Int64("seed", 1, "seed for payloads, operation mix, fault times and victims")
		seconds = flag.Int("seconds", 30, "measured seconds: one phase with --trace 0, an untraced and a traced half with --trace 1")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the traced run")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// A run must end within 180 s; a hang is reported, not waited out.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s; aborting without a result")
		os.Exit(3)
	})

	dur := time.Duration(*seconds) * time.Second
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runLayers(w, *seed, dur)
	} else {
		rep, err = runEndToEnd(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printRecord(w, *seed, *seconds, *trace, rep)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]map[string]any, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": rep.values[d.name], "unit": d.unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runEndToEnd stands the domain up setupRepeats times for the set-up
// time, then measures the last one untraced.
func runEndToEnd(w workload, seed int64, dur time.Duration) (*report, error) {
	rep := &report{values: map[string]float64{}, samples: map[string]int{}}
	var setups []time.Duration
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		nb, err := stand(w, clientConns(), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, nb.setup.total)
		if i < setupRepeats-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	p := b.drive(seed, dur)
	b.close()
	rep.add(p)
	// The mean, not the median: bootstrapping a ring sometimes loses a
	// token and waits out one retransmission, so set-up times cluster in
	// two modes and a median would jump between them from run to run.
	for _, s := range setups {
		rep.setupEach = append(rep.setupEach, s.Seconds())
	}
	rep.set("setup_s", meanOf(rep.setupEach))
	rep.samples["setup"] = len(setups)
	endToEndMetrics(rep, p)
	return rep, nil
}

// runLayers times the codec, measures an untraced run for the counters,
// and a traced run for the per-hop breakdown, each for half of dur.
func runLayers(w workload, seed int64, dur time.Duration) (*report, error) {
	dur /= 2
	rep := &report{values: map[string]float64{}, samples: map[string]int{}}
	if err := codecMetrics(rep, w, seed); err != nil {
		return nil, err
	}

	b, err := stand(w, clientConns(), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := b.drive(seed, dur)
	b.close()
	rep.add(p)
	rep.set("setup.domain_new_s", b.setup.domainNew.Seconds())
	rep.set("setup.gateway_join_s", b.setup.gatewayJoin.Seconds())
	rep.set("setup.promote_s", b.setup.promote.Seconds())
	endToEndMetrics(rep, p)
	layerMetrics(rep, p)

	tracer := obs.NewTracer(traceCapacity)
	bt, err := stand(w, clientConns(), tracer)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	measureFrom := time.Now().Add(warmup)
	pt := bt.drive(seed, dur)
	bt.close()
	rep.add(pt)
	traceMetrics(rep, p, pt, tracer.Recent(), measureFrom)
	return rep, nil
}

// clientConns is the number of IIOP connections: two, but never more
// than there are processors to drive them.
func clientConns() int { return min(2, runtime.NumCPU()) }

// drive runs the workload's load and its correctness audit.
func (b *bench) drive(seed int64, dur time.Duration) *phase {
	if b.w.openLoop() {
		p := b.openLoop(seed, dur)
		for i := range p.reqs {
			if err := p.reqs[i].err; err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: first failed call, due at %v: %v\n", p.reqs[i].due, err)
				break
			}
		}
		for _, f := range p.faults {
			for _, err := range f.errs {
				fmt.Fprintf(os.Stderr, "perfbench: %s fault on p%02d at %v: %v\n", f.kind, f.victim, f.at, err)
			}
		}
		b.auditRegister(p)
		return p
	}
	p := b.closedLoop(seed, dur)
	b.auditEcho(p)
	var demoted uint64
	for i := 0; i < b.d.Nodes(); i++ {
		demoted += b.d.Node(i).Totem.Stats().Demotions
	}
	if leader, _, ok := b.d.Node(0).Totem.Fastpath(); ok {
		p.sequencer = string(leader)
	}
	if demoted > 0 {
		p.problem("leader fast path demoted %d times since set-up; figures would mix ordering modes, run invalid", demoted)
	}
	if rc := p.counters["totem.Reconfigs"]; rc > 0 {
		p.problem("totem reconfigured %d times without a fault", rc)
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndMetrics derives the user-visible metrics of one phase. The
// timings (throughput and latency) come from its calmest windows, the
// third in which the hypervisor stole the least CPU time from this
// machine, each the median over those windows. On a shared host other
// tenants take CPU in stretches of seconds, and a window they hit reads
// slow whatever the program did; the selection looks only at stolen
// time, never at the figures. Latencies leave out the requests a fault
// disturbed; the per-layer outage and failover metrics describe those.
// A window with too few samples for a percentile does not vote on it,
// and when no window has enough (a short run) the percentile comes from
// every successful call. The costs (CPU time and bytes allocated per
// op) are not stolen from, and come from the whole phase: faults,
// checkpoints of a growing register and all.
func endToEndMetrics(rep *report, p *phase) {
	ok := p.ok()
	rep.samples["latency"] = len(p.lat)
	rep.samples["windows"] = len(p.win)
	if ok == 0 {
		rep.problems = append(rep.problems, "no call succeeded")
		return
	}
	calm := calmest(p.win)
	rep.samples["calm_windows"] = len(calm)
	var tput, p50, p99 []float64
	var steal usage
	for _, w := range calm {
		if r := w.rate(); r > 0 {
			tput = append(tput, r)
		}
		if v, err := percentile(w.lat, 0.50); err == nil {
			p50 = append(p50, ms(v))
		}
		if v, err := percentile(w.lat, 0.99); err == nil {
			p99 = append(p99, ms(v))
		}
		steal.steal += w.use.steal
		steal.ticks += w.use.ticks
	}
	if len(tput) == 0 {
		rep.problems = append(rep.problems, "the calm windows completed no calls")
		return
	}
	if len(p50) == 0 {
		p50 = []float64{ms(rep.percentile(p.lat, 0.50))}
	}
	if len(p99) == 0 {
		p99 = []float64{ms(rep.percentile(p.lat, 0.99))}
	}
	rep.set("throughput_ops", medianOf(tput))
	rep.set("latency_p50_ms", medianOf(p50))
	rep.set("latency_p99_ms", medianOf(p99))
	rep.set("cpu_us_per_op", us(p.use.cpu)/float64(ok))
	rep.set("alloc_kb_per_op", float64(p.use.alloc)/1024/float64(ok))
	rep.set("host.steal_pct", 100*p.use.stealShare())
	rep.set("host.calm_steal_pct", 100*steal.stealShare())
	rep.set("peak_rss_mb", peakRSS())
	rep.set("error_ratio", float64(p.failed)/float64(p.attempted))

	var nodeOutages []time.Duration
	var worst time.Duration
	for _, f := range p.faults {
		o, found := outage(f, p.reqs)
		if !found {
			rep.problems = append(rep.problems, fmt.Sprintf("no request succeeded after the %s fault at %v", f.kind, f.at))
			continue
		}
		if f.kind == nodeCrash {
			nodeOutages = append(nodeOutages, o)
		}
		worst = max(worst, o)
	}
	rep.samples["node_outages"] = len(nodeOutages)
	rep.samples["faults"] = len(p.faults)
	rep.samples["live_replicas"] = p.liveReplicas
	rep.set("outage_node_ms", ms(median(nodeOutages)))
	rep.set("outage_max_ms", ms(worst))
}

// layerMetrics derives the counter-based per-layer metrics of the
// untraced phase.
func layerMetrics(rep *report, p *phase) {
	c := p.counters
	ok := uint64(p.ok())
	rep.set("totem.broadcasts_per_op", ratio(c["totem.Broadcast"], ok))
	rep.set("totem.parts_per_pack", ratio(c["totem.PackedParts"], c["totem.PackedMsgs"]))
	rep.set("totem.token_passes_per_op", ratio(c["totem.TokenPasses"], ok))
	rep.set("totem.forwarded_per_op", ratio(c["totem.Forwarded"], ok))
	rep.set("totem.leader_batches_per_op", ratio(c["totem.LeaderBatches"], ok))
	rep.set("totem.demotions", float64(c["totem.Demotions"]))
	rep.set("totem.retransmits_per_op", ratio(c["totem.Retransmitted"], ok))
	rep.set("totem.reconfigs", float64(c["totem.Reconfigs"]))
	rep.set("udpnet.tx_datagrams_per_op", ratio(c["udpnet.TxDatagrams"], ok))
	rep.set("udpnet.tx_per_flush", ratio(c["udpnet.TxDatagrams"], c["udpnet.TxBatches"]))
	rep.set("udpnet.rx_per_batch", ratio(c["udpnet.RxDatagrams"], c["udpnet.RxBatches"]))
	rep.set("udpnet.drops", float64(c["udpnet.TxQueueDrops"]+c["udpnet.TxErrors"]+c["udpnet.RxInboxDrops"]))
	rep.set("memnet.datagrams_per_op", ratio(c["memnet.Sent"], ok))
	rep.set("memnet.drops", float64(c["memnet.Lost"]+c["memnet.Overflow"]))
	rep.set("replication.dup_responses_per_op", ratio(c["replication.DuplicateResponses"], ok))
	rep.set("replication.early_discard_ratio", ratio(c["replication.ResponsesDiscardedEarly"], c["replication.DuplicateResponses"]))
	rep.set("replication.checkpoints_per_kop", 1000*ratio(c["replication.Checkpoints"]+c["replication.CatchupCheckpoints"], ok))
	rep.set("replication.dup_invocations", float64(c["replication.DuplicateInvocations"]))
	rep.set("replication.transfers_checkpointed", float64(c["replication.TransfersCheckpointed"]))
	rep.set("replication.transfers_full", float64(c["replication.TransfersFullState"]))
	rep.set("replication.entries_replayed", float64(c["replication.TransferEntriesReplayed"]))
	rep.set("core.answered_from_cache", float64(c["core.AnsweredFromCache"]))
	rep.set("core.reinvocations", float64(c["core.ReinvocationsDetected"]))
	rep.set("core.abandoned", float64(c["core.RequestsAbandoned"]))
	rep.set("core.exceptions", float64(c["core.Exceptions"]))
	rep.set("thinclient.failovers", float64(c["thinclient.Failovers"]))
	rep.set("thinclient.reissues", float64(c["thinclient.Reissues"]))

	var spans, restores []time.Duration
	var recoveryErrs int
	for _, f := range p.faults {
		recoveryErrs += len(f.errs)
		if f.kind == gatewayCrash {
			spans = append(spans, spanning(f, p.reqs)...)
		} else if f.restore > 0 {
			restores = append(restores, f.restore)
		}
	}
	rep.samples["failover_calls"] = len(spans)
	rep.set("thinclient.failover_ms", ms(median(spans)))
	rep.set("ftmgmt.restore_s", median(restores).Seconds())
	rep.set("faults.injected", float64(len(p.faults)))
	rep.set("faults.recovery_errors", float64(recoveryErrs))

	u := p.use
	if u.totalCPU > 0 {
		rep.set("runtime.gc_cpu_pct", 100*u.gcCPU/u.totalCPU)
	}
	rep.set("runtime.gc_per_kop", 1000*ratio(uint64(u.gcs), ok))
	rep.set("runtime.mallocs_per_op", ratio(u.mallocs, ok))
	if len(p.late) > 0 {
		rep.set("loadgen.late_p99_ms", ms(rep.percentile(p.late, 0.99)))
	}
}

// traceMetrics derives the per-hop latencies of the traced phase and
// compares its throughput with the untraced one.
func traceMetrics(rep *report, p, pt *phase, traces []*obs.Trace, since time.Time) {
	samples := hopSamples(traces, since)
	rep.samples["traces"] = len(samples[hops[0].name])
	rep.set("obs.traces", float64(len(samples[hops[0].name])))
	var sumP50 time.Duration
	for _, h := range hops {
		s := samples[h.name]
		if len(s) == 0 {
			rep.problems = append(rep.problems, "traced run recorded no complete trace")
			return
		}
		p50 := rep.percentile(s, 0.50)
		p99 := rep.percentile(s, 0.99)
		rep.set(h.name+"_p50", us(p50))
		rep.set(h.name+"_p99", us(p99))
		sumP50 += p50
	}
	if pt.ok() == 0 || p.ok() == 0 {
		return
	}
	traced := float64(pt.ok()) / (pt.span * windows).Seconds()
	untraced := float64(p.ok()) / (p.span * windows).Seconds()
	rep.set("obs.trace_overhead_pct", 100*(untraced-traced)/untraced)
	if lat := rep.percentile(pt.lat, 0.50); lat > 0 {
		rep.set("obs.hop_coverage", float64(sumP50)/float64(lat))
	}
}

// codecMetrics times the IIOP codec on the workload's own frames.
func codecMetrics(rep *report, w workload, seed int64) error {
	op, args, result, thin := "echo", []byte(nil), []byte(nil), false
	if w.openLoop() {
		op, args, result, thin = "append", markerArg(1), make([]byte, 8), true
	} else {
		a, _ := echoPayloads(seed, 1, w.payload)
		// An echo's result encodes the payload exactly as its argument did.
		args, result = a[0][0], a[0][0]
	}
	dec, enc, err := codecCosts(op, args, result, thin)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	rep.set("giop.decode_request_us", us(dec.perCall))
	rep.set("giop.decode_request_alloc_b", dec.allocB)
	rep.set("giop.encode_reply_us", us(enc.perCall))
	rep.set("giop.encode_reply_alloc_b", enc.allocB)
	return nil
}

// printRecord prints what the figures depend on: the machine, the
// toolchain, the commit, the transport and the sample counts, followed
// by every metric the run computed as "name value unit".
func printRecord(w workload, seed int64, seconds, trace int, rep *report) {
	transport := "memnet (in-process)"
	if w.udp {
		transport = "localhost UDP (udpnet, batched)"
	}
	record := map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"cpu_model":      cpuModel(),
		"transport":      transport,
		"injected_delay": "none",
		"connections":    clientConns(),
		"samples":        rep.samples,
	}
	if len(rep.setupEach) > 0 {
		record["setup_s_each"] = rep.setupEach
	}
	if len(rep.faults) > 0 {
		record["faults"] = rep.faults
	}
	if len(rep.sequencers) > 0 {
		record["sequencers"] = rep.sequencers
	}
	line, _ := json.Marshal(map[string]any{"record": record}) // plain maps always encode
	fmt.Println(string(line))
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, rep.values[n], units[n])
	}
}

// cpuModel reads the processor's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
