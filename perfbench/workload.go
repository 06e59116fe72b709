package main

import (
	"time"

	"eternalgw/internal/totem"
)

// workload is one traffic mix the benchmark drives through a domain.
type workload struct {
	name string
	// nodes is the number of processors; replicas take the lowest ones
	// and gateways sit on their own processors at the top.
	nodes    int
	ordering totem.OrderingMode
	// udp runs totem over localhost UDP sockets (batched udpnet, the
	// production transport) instead of the in-process memnet.
	udp bool
	// gateways lists the processors hosting a gateway.
	gateways []int

	// Closed loop: callers goroutines, each with one echo of payload
	// bytes in flight, multiplexed by GIOP request id over the IIOP
	// connections.
	payload int
	callers int

	// Open loop: rate requests per second, half appends of an 8-byte
	// marker and half "ops" reads, through thin clients, with a seeded
	// schedule that cycles through the fault kinds listed.
	rate   float64
	faults []faultKind
}

func (w workload) openLoop() bool { return w.rate > 0 }

// The daemon's defaults (cmd/ftdomaind): totem defaults, active
// replication of degree 3, the Resource Manager reconciling every
// 250 ms, admission control off.
const (
	replicas        = 3
	monitorInterval = 250 * time.Millisecond
	// warmup runs the workload before measuring, so lazy set-up (pools,
	// connection state) is done and the bounded caches are full when
	// timing starts. The replicas' duplicate-suppression caches hold
	// 16384 replies each by default; large-leader fills them after
	// about 4 s, and until then its heap grows and its p99 runs at up to
	// twice the steady value.
	warmup = 6 * time.Second
	// setupRepeats is how many domains a --trace 0 run stands up to
	// report their mean set-up time; the last one is measured.
	setupRepeats = 9
	// openRate is the open loop's request rate. A request is due every
	// 0.67 ms, well inside totem's default active window (8 × the 200 µs
	// idle hold), so the ring keeps rotating at full speed. At 600/s
	// arrivals are 1.67 ms apart, just outside the window, and on a
	// 2-vCPU VM five seeds spread p50 by 28% and p99 by 52%, against
	// 13% and 12% at this rate.
	openRate = 1500
)

// workloads are chosen so each stresses a different layer:
//
//   - small-ring-udp: per-message fixed cost and token wait dominate and
//     payload copies are negligible, so ordering, framing and transport
//     changes show here, and a copy diet must not move anything. It is
//     the only workload on the production transport.
//   - large-leader: ordering wait is smallest, so copies and allocation
//     set the cost; the only place the leader fast path runs under load.
//   - failover-rw: thin-client failover and reissue, the gateway-group
//     record, totem membership change, and checkpoint plus catch-up
//     state transfer, with writes beside reads. The loop is open so
//     requests due during an outage count. Its register audit fails on
//     some seeds: after replica-processor crashes and their repair, live
//     replicas can hold registers that differ, or all lack acknowledged
//     writes.
//   - failover-gw: failover-rw with gateway crashes only, the faults the
//     domain currently survives with its state intact: thin-client
//     failover, reissue and the gateway-group record under load.
var workloads = []workload{
	{
		name: "small-ring-udp", nodes: 4, ordering: totem.OrderingRing, udp: true,
		gateways: []int{3}, payload: 64, callers: 32,
	},
	{
		name: "large-leader", nodes: 4, ordering: totem.OrderingLeader,
		gateways: []int{3}, payload: 16 << 10, callers: 16,
	},
	{
		name: "failover-rw", nodes: 5, ordering: totem.OrderingRing,
		gateways: []int{3, 4}, rate: openRate, faults: []faultKind{gatewayCrash, nodeCrash},
	},
	{
		name: "failover-gw", nodes: 5, ordering: totem.OrderingRing,
		gateways: []int{3, 4}, rate: openRate, faults: []faultKind{gatewayCrash},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
