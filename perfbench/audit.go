package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"eternalgw/internal/experiments"
	"eternalgw/internal/thinclient"
)

// settle is how long the audit waits for replicas to converge after the
// load stops.
const settle = 10 * time.Second

// auditEcho checks replica consistency after a closed-loop phase: every
// replica executed the same number of echoes, at least as many as were
// answered while measuring. Payload equality is checked per call.
func (b *bench) auditEcho(p *phase) {
	apps := b.replicaApps()
	if len(apps) != replicas {
		p.problem("%d replicas were created, want %d (no fault was injected)", len(apps), replicas)
		return
	}
	deadline := time.Now().Add(settle)
	for {
		ops := apps[0].Ops()
		same := true
		for _, a := range apps[1:] {
			same = same && a.Ops() == ops
		}
		if same {
			if ops < int64(p.ok()) {
				p.problem("replicas executed %d echoes, fewer than the %d answered", ops, p.ok())
			}
			return
		}
		if time.Now().After(deadline) {
			counts := make([]int64, len(apps))
			for i, a := range apps {
				counts[i] = a.Ops()
			}
			p.problem("replicas diverged: executed %v echoes", counts)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// probeMarker is appended after the load stops; the replicas whose
// register ends with it are the live ones.
const probeMarker = math.MaxUint64

func markerArg(m uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], m)
	return experiments.OctetSeqArg(buf[:])
}

// auditRegister checks the replicated register after an open-loop
// phase with faults: the live replicas hold identical registers, every
// acknowledged marker appears exactly once at the position its append
// returned, no marker appears twice, the op count lies between the
// acknowledged and the attempted writes, and every read saw a count
// the total order allows.
func (b *bench) auditRegister(p *phase) {
	tc, err := thinclient.Dial(b.latestRef(), thinclient.Config{})
	if err != nil {
		p.problem("audit: dial: %v", err)
		return
	}
	defer func() { _ = tc.Close() }()
	if _, err := tc.Call("append", markerArg(probeMarker)); err != nil {
		p.problem("audit: probe append: %v", err)
		return
	}
	members := len(b.d.Node(b.w.gateways[0]).RM.Members(serverGroup))
	live := b.liveRegisters(members)
	p.liveReplicas = len(live)
	if members < replicas || len(live) != members {
		p.problem("audit: %d replicas executed the probe; the group has %d members, at least %d wanted", len(live), members, replicas)
		if len(live) == 0 {
			return
		}
	}
	reg := live[0]
	for i, r := range live[1:] {
		if !bytes.Equal(r, reg) {
			p.problem("audit: live replica %d's register differs from replica 0's (%d vs %d bytes)", i+1, len(r), len(reg))
		}
	}
	p.problems = append(p.problems, checkRegister(reg, p.reqs)...)
}

// liveRegisters waits until the probe reached the group's members and
// returns the registers that end with it.
func (b *bench) liveRegisters(members int) [][]byte {
	deadline := time.Now().Add(settle)
	var live [][]byte
	for {
		live = live[:0]
		for _, a := range b.replicaApps() {
			v := a.Value()
			if len(v) >= 8 && binary.BigEndian.Uint64(v[len(v)-8:]) == probeMarker {
				live = append(live, v)
			}
		}
		if len(live) >= members || time.Now().After(deadline) {
			return live
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkRegister audits one register, ending with the probe marker,
// against the requests that produced it.
func checkRegister(reg []byte, reqs []request) []string {
	var problems []string
	fail := func(format string, args ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if len(reg)%8 != 0 {
		return []string{fmt.Sprintf("register length %d is not a whole number of markers", len(reg))}
	}
	n := len(reg) / 8
	at := func(i int) uint64 { return binary.BigEndian.Uint64(reg[8*i:]) }
	seen := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		seen[at(i)]++
	}
	for m, c := range seen {
		if c > 1 {
			fail("marker %#x appended %d times", m, c)
		}
	}
	var acked, attempted int
	var ackedDone, sent []time.Duration
	for i := range reqs {
		r := &reqs[i]
		if !r.write {
			continue
		}
		attempted++
		sent = append(sent, r.sent)
		if !r.ok {
			continue
		}
		acked++
		ackedDone = append(ackedDone, r.done)
		if seen[r.marker] != 1 {
			fail("acknowledged marker %#x appears %d times", r.marker, seen[r.marker])
		} else if r.value < 1 || int(r.value) > n || at(int(r.value)-1) != r.marker {
			fail("marker %#x acknowledged at position %d but the register disagrees", r.marker, r.value)
		}
	}
	// The probe is the last write.
	if ops := n - 1; ops < acked || ops > attempted {
		fail("register holds %d writes; acknowledged %d, attempted %d", ops, acked, attempted)
	}
	sort.Slice(ackedDone, func(i, j int) bool { return ackedDone[i] < ackedDone[j] })
	sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
	for i := range reqs {
		r := &reqs[i]
		if r.write || !r.ok {
			continue
		}
		// A read sees every write acknowledged before it was sent, and
		// none not yet sent when it was answered.
		lo := sort.Search(len(ackedDone), func(j int) bool { return ackedDone[j] >= r.sent })
		hi := sort.Search(len(sent), func(j int) bool { return sent[j] > r.done })
		if r.value < int64(lo) || r.value > int64(hi) {
			fail("read at %v saw %d writes; %d were acknowledged before it and %d sent by its reply", r.sent, r.value, lo, hi)
		}
	}
	return problems
}
