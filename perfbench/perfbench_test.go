package main

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/totem"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, err := percentile(durations(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000 ms = %v, want 990ms (nearest rank)", v)
	}
	if _, err := percentile(durations(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(durations(21), 0.5); err != nil || v != 11*time.Millisecond {
		t.Fatalf("p50 of 21 samples = %v, %v; want 11ms", v, err)
	}
	if _, err := percentile(durations(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestCalmestWindowsByStolenTime(t *testing.T) {
	win := make([]window, 6)
	for i, steal := range []uint64{9, 1, 8, 2, 7, 3} {
		win[i] = window{ok: i, use: usage{steal: steal, ticks: 100}}
	}
	calm := calmest(win)
	if len(calm) != 2 || calm[0].ok != 1 || calm[1].ok != 3 {
		t.Fatalf("calmest of steal 9,1,8,2,7,3 = windows %v, want the two with steal 1 and 2", calm)
	}
	if win[0].ok != 0 || win[1].ok != 1 {
		t.Fatal("calmest reordered its argument")
	}
	for i := range win {
		win[i].use.steal = 0
	}
	if got := calmest(win); len(got) != len(win) {
		t.Fatalf("without steal figures every window counts, got %d of %d", len(got), len(win))
	}
}

func TestOutageOnSyntheticTimeline(t *testing.T) {
	ms := time.Millisecond
	reqs := []request{
		{due: 0, sent: 0, done: 5 * ms, ok: true},
		{due: 90 * ms, sent: 90 * ms, done: 410 * ms, ok: true, client: 1}, // in flight at the fault
		{due: 100 * ms, sent: 100 * ms, done: 420 * ms, ok: false},         // failed: never counts
		{due: 110 * ms, sent: 110 * ms, done: 400 * ms, ok: true},          // first reply due after it
		{due: 120 * ms, sent: 120 * ms, done: 405 * ms, ok: true},
	}
	f := fault{kind: gatewayCrash, at: 100 * ms, clients: []int{1}}
	got, ok := outage(f, reqs)
	if !ok || got != 300*ms {
		t.Fatalf("outage = %v, %v; want 300ms (fault at 100ms, first good reply to a later request at 400ms)", got, ok)
	}
	if _, ok := outage(fault{at: time.Second}, reqs); ok {
		t.Fatal("a fault after the last request has no outage end")
	}
	span := spanning(f, reqs)
	if len(span) != 1 || span[0] != 320*ms {
		t.Fatalf("calls spanning the gateway crash = %v, want [320ms] (client 1's call)", span)
	}
}

// register builds a register holding markers and the closing probe.
func register(markers ...uint64) []byte {
	out := make([]byte, 0, 8*(len(markers)+1))
	for _, m := range append(markers, probeMarker) {
		out = binary.BigEndian.AppendUint64(out, m)
	}
	return out
}

func TestDisturbedRequests(t *testing.T) {
	// A fault at 1.5s that healed 0.1s later disturbs the requests due
	// from 1.5s until settleAfterHeal after 1.6s.
	faults := []fault{{at: 1500 * time.Millisecond, healed: 1600 * time.Millisecond}}
	for _, tc := range []struct {
		due  time.Duration
		want bool
	}{
		{1499 * time.Millisecond, false},
		{1500 * time.Millisecond, true},
		{1600*time.Millisecond + settleAfterHeal - 1, true},
		{1600*time.Millisecond + settleAfterHeal, false},
	} {
		if got := disturbed(faults, tc.due); got != tc.want {
			t.Errorf("disturbed(due %v) = %v, want %v", tc.due, got, tc.want)
		}
	}
}

func TestRegisterAuditHasTeeth(t *testing.T) {
	ms := time.Millisecond
	reqs := []request{
		{write: true, marker: 1, value: 1, ok: true, sent: 0, done: 2 * ms},
		{write: true, marker: 2, value: 2, ok: true, sent: 1 * ms, done: 3 * ms},
		{write: false, value: 2, ok: true, sent: 4 * ms, done: 5 * ms},
		{write: true, marker: 3, ok: false, sent: 6 * ms, done: 9 * ms}, // may or may not have landed
	}
	staleRead := func(rs []request) { rs[2].value = 1 } // sent after both writes were acknowledged
	for _, tc := range []struct {
		name   string
		reg    []byte
		mutate func([]request)
		want   string // substring of a problem; empty means clean
	}{
		{"clean", register(1, 2), nil, ""},
		{"clean with the unacknowledged write", register(1, 2, 3), nil, ""},
		{"duplicated marker", register(1, 2, 2), nil, "appended 2 times"},
		{"missing marker", register(1), nil, "appears 0 times"},
		{"reordered markers", register(2, 1), nil, "register disagrees"},
		{"stale read", register(1, 2), staleRead, "saw 1 writes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := append([]request(nil), reqs...)
			if tc.mutate != nil {
				tc.mutate(rs)
			}
			problems := checkRegister(tc.reg, rs)
			if tc.want == "" {
				if len(problems) != 0 {
					t.Fatalf("clean register flagged: %v", problems)
				}
				return
			}
			if len(problems) == 0 || !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Fatalf("problems = %v, want one containing %q", problems, tc.want)
			}
		})
	}
}

func TestDeltaAcrossRestartAndNewSources(t *testing.T) {
	before := snapshot{
		"core.RequestsReceived@gw0": 100,
		"totem.Reconfigs@p00":       1,
		"totem.Reconfigs@p01":       7, // p01's counters restart below
	}
	after := snapshot{
		"core.RequestsReceived@gw0": 150,
		"core.RequestsReceived@gw1": 20, // gateway added during the phase
		"totem.Reconfigs@p00":       3,
		"totem.Reconfigs@p01":       2,
	}
	got := delta(before, after)
	if got["core.RequestsReceived"] != 70 || got["totem.Reconfigs"] != 4 {
		t.Fatalf("delta = %v, want core.RequestsReceived 70 and totem.Reconfigs 4", got)
	}
}

func TestStatsDeltaAcrossNodeCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up a domain")
	}
	d, err := domain.New(domain.Config{Name: "delta", Nodes: 3, Totem: totem.Config{
		FailTimeout: 80 * time.Millisecond, GatherTimeout: 20 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := &bench{w: workload{nodes: 3}, d: d}
	reconfigs := func() (sum uint64) {
		for i := 0; i < d.Nodes(); i++ {
			sum += d.Node(i).Totem.Stats().Reconfigs
		}
		return sum
	}
	before, r0 := b.collect(), reconfigs()

	d.CrashNode(2)
	waitFor(t, func() bool { return len(d.Node(0).Totem.Members()) == 2 })
	d.RestartNode(2)
	waitFor(t, b.ringWhole)

	after, r1 := b.collect(), reconfigs()
	got := delta(before, after)
	// The crashed processor's counters kept running, so per-node deltas
	// add up to the delta of the sums: each survivor installed the
	// two-member ring and the merged one, the crashed node its singleton
	// ring and the merged one.
	if got["totem.Reconfigs"] != r1-r0 || got["totem.Reconfigs"] < 6 {
		t.Fatalf("totem.Reconfigs delta = %d, node-by-node sum %d, want equal and at least 6", got["totem.Reconfigs"], r1-r0)
	}
	if got["memnet.Blocked"] == 0 {
		t.Fatal("the crash blocked no datagrams")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
