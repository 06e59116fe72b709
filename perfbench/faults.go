package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"eternalgw/internal/memnet"
)

type faultKind int

const (
	gatewayCrash faultKind = iota // abrupt gateway close, re-added after a pause
	nodeCrash                     // replica processor crash, restarted after a pause
)

func (k faultKind) String() string {
	if k == gatewayCrash {
		return "gateway"
	}
	return "node"
}

// fault is one injected failure. Times are offsets from the open loop's
// start, like request times.
type fault struct {
	kind   faultKind
	victim int // processor
	// at is when the fault struck and healed when the domain was whole
	// again: the replacement gateway published, or the crashed processor
	// back in the ring and its group at full degree.
	at, healed time.Duration
	// restore is how long a crashed replica's group took to get back to
	// full degree with every member synced.
	restore time.Duration
	// clients lists the thin clients connected to a crashed gateway.
	clients []int
	errs    []error // re-add or recovery failures, kept visible
}

// The schedule spaces faults so the domain heals in between: a seeded
// gap after the previous fault healed, then the fault, then a pause
// before the victim comes back. Requests due while a fault is being
// repaired are left out of the end-to-end latencies (see disturbed):
// those describe the open loop between failures, and the per-layer
// outage and failover figures the failures.
const (
	faultGapMin     = 2500 * time.Millisecond
	faultGapSpread  = 1500 * time.Millisecond
	gatewayDowntime = 200 * time.Millisecond
	nodeDowntime    = 500 * time.Millisecond
	// faultTail is room left at the end of the measured phase for the
	// last fault to heal while load is still measured.
	faultTail  = 1500 * time.Millisecond
	healBudget = 20 * time.Second
)

// injectFaults cycles through the workload's fault kinds between from
// and until, with the first kind, the gaps and the victims drawn from
// rng.
func (b *bench) injectFaults(rng *rand.Rand, base time.Time, from, until time.Duration) []fault {
	var out []fault
	kinds := b.w.faults
	next := rng.Intn(len(kinds))
	time.Sleep(time.Until(base.Add(from)))
	for {
		gap := faultGapMin + time.Duration(rng.Int63n(int64(faultGapSpread)))
		if time.Since(base)+gap+faultTail > until {
			return out
		}
		time.Sleep(gap)
		var f fault
		if kinds[next] == gatewayCrash {
			f = b.crashGateway(rng, base)
		} else {
			f = b.crashNode(rng, base)
		}
		out = append(out, f)
		next = (next + 1) % len(kinds)
	}
}

// crashGateway closes a gateway that thin clients are connected to, as a
// gateway process failure would, and after a pause replaces it: a new
// gateway is added on the same processor and the dead one withdrawn from
// the published references. Without the withdrawal every crash would
// leave a dead profile in the references, and each later failover would
// dial through all of them. A failed re-add is recorded and retried, as
// an operator would, so the next fault again finds redundant gateways.
func (b *bench) crashGateway(rng *rand.Rand, base time.Time) fault {
	b.mu.Lock()
	nodes := make([]int, 0, len(b.live))
	for n := range b.live {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	connected := map[int][]int{}
	for i, c := range b.clients {
		for _, n := range nodes {
			if b.live[n].Addr() == c.Gateway() {
				connected[n] = append(connected[n], i)
			}
		}
	}
	var candidates []int
	for _, n := range nodes {
		if len(connected[n]) > 0 {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		candidates = nodes
	}
	victim := candidates[rng.Intn(len(candidates))]
	gw := b.live[victim]
	delete(b.live, victim)
	b.mu.Unlock()

	f := fault{kind: gatewayCrash, victim: victim, clients: connected[victim], at: time.Since(base)}
	_ = gw.Close() // the abrupt failure under test; its error is irrelevant
	time.Sleep(gatewayDowntime)
	deadline := time.Now().Add(healBudget)
	for {
		err := b.addGateway(victim)
		if err == nil {
			break
		}
		f.errs = append(f.errs, err)
		if time.Now().After(deadline) {
			break
		}
	}
	// Withdrawn after the replacement joined, the dead gateway is not
	// the last on its processor, so the processor stays in the gateway
	// group. A closed gateway has nothing left to drain; the error of
	// its shutdown only says it is closed already.
	_ = b.d.RemoveGateway(gw, time.Millisecond)
	f.healed = time.Since(base)
	return f
}

// crashNode crashes a processor holding a replica (never a gateway's),
// restarts it after a pause, and waits until the group is back at full
// degree with every member synced and the ring has every processor.
func (b *bench) crashNode(rng *rand.Rand, base time.Time) fault {
	observer := b.w.gateways[0]
	rm := b.d.Node(observer).RM
	var candidates []int
	for _, id := range rm.Members(serverGroup) {
		if i := b.nodeIndex(id); i >= 0 && !b.hostsGateway(i) {
			candidates = append(candidates, i)
		}
	}
	sort.Ints(candidates)
	if len(candidates) == 0 {
		return fault{kind: nodeCrash, victim: -1, at: time.Since(base),
			errs: []error{errors.New("no replica processor without a gateway to crash")}}
	}
	victim := candidates[rng.Intn(len(candidates))]
	// The crash is repaired once two views later (the failed member
	// removed, a replacement joined) the group is whole again.
	prev, _ := rm.View(serverGroup)
	f := fault{kind: nodeCrash, victim: victim, at: time.Since(base)}
	crashed := time.Now()
	b.d.CrashNode(victim)

	deadline := crashed.Add(healBudget)
	restored := false
	restarted := false
	for time.Now().Before(deadline) {
		if !restarted && time.Since(crashed) >= nodeDowntime {
			b.d.RestartNode(victim)
			restarted = true
		}
		if !restored && b.groupRestored(prev.Number+2) {
			restored = true
			f.restore = time.Since(crashed)
		}
		if restored && restarted && b.ringWhole() {
			f.healed = time.Since(base)
			return f
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.healed = time.Since(base)
	f.errs = append(f.errs, fmt.Errorf("p%02d crash: domain not healed after %v (group restored: %v)", victim, healBudget, restored))
	return f
}

// groupRestored reports whether the replicated object has reached view
// minView and has at least its minimum degree, every member synced,
// through the public API. The Resource Manager may briefly over-place:
// a replacement lands while the restarted processor's own join also
// completes.
func (b *bench) groupRestored(minView uint64) bool {
	rm := b.d.Node(b.w.gateways[0]).RM
	v, ok := rm.View(serverGroup)
	members := rm.Members(serverGroup)
	if !ok || v.Number < minView || len(members) < replicas {
		return false
	}
	for _, id := range members {
		i := b.nodeIndex(id)
		if i < 0 || b.d.Node(i).RM.WaitSynced(serverGroup, 0) != nil {
			return false
		}
	}
	return true
}

// ringWhole reports whether every processor's ring has every processor.
func (b *bench) ringWhole() bool {
	for i := 0; i < b.d.Nodes(); i++ {
		if len(b.d.Node(i).Totem.Members()) != b.d.Nodes() {
			return false
		}
	}
	return true
}

func (b *bench) nodeIndex(id memnet.NodeID) int {
	for i := 0; i < b.d.Nodes(); i++ {
		if b.d.Node(i).ID == id {
			return i
		}
	}
	return -1
}

func (b *bench) hostsGateway(i int) bool {
	for _, n := range b.w.gateways {
		if n == i {
			return true
		}
	}
	return false
}

// settleAfterHeal is how long after a fault healed requests still
// count as disturbed: requests queued during the fault drain first.
const settleAfterHeal = 500 * time.Millisecond

// disturbed reports whether a request due at offset due fell between a
// fault and settleAfterHeal after the domain healed from it.
func disturbed(faults []fault, due time.Duration) bool {
	for _, f := range faults {
		if due >= f.at && due < f.healed+settleAfterHeal {
			return true
		}
	}
	return false
}

// outage is the time from a fault until the first successful reply to a
// request due after it; ok is false when no such reply exists.
func outage(f fault, reqs []request) (time.Duration, bool) {
	var first time.Duration
	found := false
	for i := range reqs {
		r := &reqs[i]
		if r.ok && r.due >= f.at && (!found || r.done < first) {
			first, found = r.done, true
		}
	}
	return first - f.at, found
}

// spanning returns the durations of the calls made by the crashed
// gateway's clients that were in flight when it crashed: the calls the
// thin client had to fail over.
func spanning(f fault, reqs []request) []time.Duration {
	var out []time.Duration
	for i := range reqs {
		r := &reqs[i]
		if !r.ok || r.sent > f.at || r.done < f.at {
			continue
		}
		for _, c := range f.clients {
			if r.client == c {
				out = append(out, r.done-r.sent)
			}
		}
	}
	return out
}
