package replication

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
)

func TestStatelessStyleExecutesEverywhere(t *testing.T) {
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Stateless, 1, 1)
	client := d.rms[d.ids[1]]
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "append", octets([]byte("s"))); err != nil {
		t.Fatal(err)
	}
	if _, ops := apps[0].snapshot(); ops != 1 {
		t.Fatalf("ops = %d", ops)
	}
}

func TestDedupCacheEviction(t *testing.T) {
	// With a tiny dedup capacity, an operation reissued after its entry
	// was evicted re-executes: the bounded-memory trade-off the paper's
	// section 3.4 discussion implies.
	net := memnet.New()
	ids := []memnet.NodeID{"a", "b"}
	var rms []*Mechanisms
	for _, id := range ids {
		ep, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node, err := startTotem(t, ep, ids)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := New(Config{Node: node, DedupCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		rms = append(rms, rm)
		t.Cleanup(rm.Stop)
	}
	app := &regApp{}
	if err := rms[0].CreateGroup(grpServer, Active, []byte(testKeyStr)); err != nil {
		t.Fatal(err)
	}
	for _, rm := range rms {
		if err := rm.WaitForGroup(grpServer, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := rms[0].JoinGroup(grpServer, app); err != nil {
		t.Fatal(err)
	}
	if err := rms[0].WaitSynced(grpServer, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rms[1].CreateGroup(grpClient, Active, nil); err != nil {
		t.Fatal(err)
	}
	if err := rms[1].WaitForGroup(grpClient, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rms[1].JoinGroup(grpClient, nil); err != nil {
		t.Fatal(err)
	}
	if err := rms[1].WaitSynced(grpClient, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Operation 1, then enough distinct operations to evict it.
	for i := 1; i <= 6; i++ {
		if _, err := invokeAsClient(t, rms[1], grpClient, 1, grpServer, uint32(i), "append", octets([]byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	// Reissue operation 1: its dedup entry is gone, so it re-executes.
	if _, err := invokeAsClient(t, rms[1], grpClient, 1, grpServer, 1, "append", octets([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if _, ops := app.snapshot(); ops != 7 {
		t.Fatalf("ops = %d, want 7 (eviction should allow re-execution)", ops)
	}
}

func TestHandleInvokeOutsideExecution(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustJoin(d.ids[0], grpServer, &regApp{})
	h := d.rms[d.ids[0]].Handle(grpServer)
	if _, err := h.Invoke([]byte(testKeyStr), "read", nil, time.Second); err == nil {
		t.Fatal("nested Invoke outside an executing operation succeeded")
	}
}

func TestHandleInvokeUnknownKey(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustJoin(d.ids[0], grpServer, &regApp{})
	h := d.rms[d.ids[0]].Handle(grpServer)
	if _, err := h.Invoke([]byte("ghost"), "read", nil, time.Second); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("err = %v, want ErrNoSuchGroup", err)
	}
}

func TestWaitForGroupTimeout(t *testing.T) {
	d := newDomain(t, 1)
	if err := d.rms[d.ids[0]].WaitForGroup(777, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestOneWayInvocationExecutesWithoutResponse(t *testing.T) {
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Active, 1, 1)
	client := d.rms[d.ids[1]]
	// Fire-and-forget: multicast the invocation directly with
	// ResponseExpected = false; no pending call is registered.
	err := client.MulticastMessage(Message{
		Header: Header{
			Kind:     KindInvocation,
			ClientID: 3,
			SrcGroup: grpClient,
			DstGroup: grpServer,
			Op:       OperationID{ChildSeq: 1},
		},
		Payload: mustRequestPayload(t, giop.Request{
			RequestID: 1,
			ObjectKey: []byte(testKeyStr),
			Operation: "append",
			Args:      octets([]byte("o")),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, ops := apps[0].snapshot()
		return ops == 1
	})
	// No response was multicast for it.
	if sent := d.rms[d.ids[0]].Stats().ResponsesSent; sent != 0 {
		t.Fatalf("responses sent = %d, want 0", sent)
	}
}

func TestReplicationPartitionThenHeal(t *testing.T) {
	// A partition splits the domain; the majority side keeps serving.
	// After healing, the rings merge and the rejoined node resumes
	// participating in new operations.
	d := newDomain(t, 3)
	apps := setupClientServer(t, d, Active, 2, 2)
	client := d.rms[d.ids[2]]

	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "append", octets([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	// Isolate n01 (one server replica) from the rest.
	d.net.Partition([]memnet.NodeID{d.ids[0], d.ids[2]}, []memnet.NodeID{d.ids[1]})
	waitFor(t, 5*time.Second, func() bool {
		return len(d.rms[d.ids[0]].Members(grpServer)) == 1
	})
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 2, "append", octets([]byte("b"))); err != nil {
		t.Fatal(err)
	}
	d.net.Heal()
	// Rings merge back to 3 members.
	waitFor(t, 5*time.Second, func() bool {
		return len(d.nodes[d.ids[0]].Members()) == 3
	})
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 3, "append", octets([]byte("c"))); err != nil {
		t.Fatal(err)
	}
	v, _ := apps[0].snapshot()
	if !bytes.Equal(v, []byte("abc")) {
		t.Fatalf("majority replica state = %q", v)
	}
}

// mustRequestPayload marshals a request for direct multicasting.
func mustRequestPayload(t *testing.T, req giop.Request) []byte {
	t.Helper()
	msg, err := giop.EncodeRequest(giopOrder, req)
	if err != nil {
		t.Fatal(err)
	}
	return giop.Marshal(msg)
}

// racyApp performs an unprotected read-modify-write with a deliberate
// gap: dispatched concurrently it loses updates, dispatched serially it
// cannot. It demonstrates paper section 2.2: multithreaded dispatch is a
// source of nondeterminism that the infrastructure's serialized,
// totally-ordered execution removes.
type racyApp struct {
	// total is read-modify-written non-atomically across a delay: under
	// concurrent dispatch, updates are lost. (The field itself uses
	// atomic load/store only so the test's progress polling is
	// race-detector clean; the lost-update hazard is untouched.)
	total atomic.Int64
}

func (a *racyApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	if op != "incr" {
		return fmt.Errorf("racyApp: unknown op %q", op)
	}
	v := a.total.Load()
	time.Sleep(100 * time.Microsecond) // widen the lost-update window
	a.total.Store(v + 1)
	reply.WriteLongLong(v + 1)
	return nil
}

func (a *racyApp) State() ([]byte, error) {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.total.Load())
	return w.Bytes(), nil
}

func (a *racyApp) SetState(state []byte) error {
	r := cdr.NewReader(state, cdr.BigEndian)
	a.total.Store(r.ReadLongLong())
	return r.Err()
}

func TestSerializedDispatchEnforcesDeterminism(t *testing.T) {
	// Paper section 2.2: the infrastructure executes the totally-ordered
	// invocation stream one operation at a time, so even an application
	// that would lose updates under multithreaded dispatch stays
	// deterministic and consistent across replicas.
	d := newDomain(t, 3)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	apps := []*racyApp{{}, {}}
	d.mustJoin(d.ids[0], grpServer, apps[0])
	d.mustJoin(d.ids[1], grpServer, apps[1])
	d.mustJoin(d.ids[2], grpClient, nil)
	client := d.rms[d.ids[2]]

	const workers, per = 4, 10
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(clientID uint64) {
			for i := 1; i <= per; i++ {
				if _, err := invokeAsClient(t, client, grpClient, clientID, grpServer, uint32(i), "incr", nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(uint64(w + 1))
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool {
		return apps[0].total.Load() == workers*per && apps[1].total.Load() == workers*per
	})
}

func TestDeleteGroupRetiresEverywhere(t *testing.T) {
	d := newDomain(t, 2)
	apps := setupClientServer(t, d, Active, 1, 1)
	client := d.rms[d.ids[1]]
	if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, 1, "append", octets([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteGroup(grpServer); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		_, ok := d.rms[d.ids[0]].GroupByKey([]byte(testKeyStr))
		return !ok
	})
	// Further invocations fail fast: the group no longer exists.
	_, err := client.Invoke(grpClient, 1, grpServer, OperationID{ChildSeq: 2}, giop.Request{
		RequestID: 2, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: "read",
	}, time.Second)
	if !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("err = %v, want ErrNoSuchGroup", err)
	}
	// The replica executed exactly the one operation before retirement.
	if _, ops := apps[0].snapshot(); ops != 1 {
		t.Fatalf("ops = %d", ops)
	}
	// The id can be reused for a fresh group.
	d.mustCreate(grpServer, WarmPassive, "fresh/key")
	if style, ok := d.rms[d.ids[0]].GroupStyle(grpServer); !ok || style != WarmPassive {
		t.Fatalf("recreated style = %v, %v", style, ok)
	}
}

func TestQuorumProtectionBlocksMinority(t *testing.T) {
	// With quorum protection on, a minority partition neither executes
	// nor issues invocations; after the merge the minority replica is
	// intact (it never diverged).
	net := memnet.New()
	ids := []memnet.NodeID{"q0", "q1", "q2"}
	rms := make(map[memnet.NodeID]*Mechanisms, 3)
	for _, id := range ids {
		ep, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node, err := startTotem(t, ep, ids)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := New(Config{Node: node, QuorumOf: len(ids)})
		if err != nil {
			t.Fatal(err)
		}
		rms[id] = rm
		t.Cleanup(rm.Stop)
	}
	apps := map[memnet.NodeID]*regApp{"q0": {}, "q1": {}}
	if err := rms["q0"].CreateGroup(grpServer, Active, []byte(testKeyStr)); err != nil {
		t.Fatal(err)
	}
	if err := rms["q2"].CreateGroup(grpClient, Active, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := rms[id].WaitForGroup(grpServer, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := rms[id].WaitForGroup(grpClient, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for id, app := range apps {
		if err := rms[id].JoinGroup(grpServer, app); err != nil {
			t.Fatal(err)
		}
		if err := rms[id].WaitSynced(grpServer, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := rms["q2"].JoinGroup(grpClient, nil); err != nil {
		t.Fatal(err)
	}
	if err := rms["q2"].WaitSynced(grpClient, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := invokeAsClient(t, rms["q2"], grpClient, 1, grpServer, 1, "append", octets([]byte("a"))); err != nil {
		t.Fatal(err)
	}

	// Partition q1 (one server replica) into a minority of one.
	net.Partition([]memnet.NodeID{"q0", "q2"}, []memnet.NodeID{"q1"})
	waitFor(t, 5*time.Second, func() bool { return !rms["q1"].HasQuorum() })

	// The minority cannot invoke...
	_, err := rms["q1"].Invoke(grpServer, 0, grpServer, OperationID{ChildSeq: 99}, giop.Request{
		RequestID: 99, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: "read",
	}, time.Second)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority invoke err = %v, want ErrNoQuorum", err)
	}
	// ...while the majority keeps serving.
	if _, err := invokeAsClient(t, rms["q2"], grpClient, 1, grpServer, 2, "append", octets([]byte("b"))); err != nil {
		t.Fatal(err)
	}

	net.Heal()
	waitFor(t, 5*time.Second, func() bool { return rms["q1"].HasQuorum() })
	if _, err := invokeAsClient(t, rms["q2"], grpClient, 1, grpServer, 3, "append", octets([]byte("c"))); err != nil {
		t.Fatal(err)
	}
	// The majority replica holds the full history.
	v, _ := apps["q0"].snapshot()
	if !bytes.Equal(v, []byte("abc")) {
		t.Fatalf("majority state = %q", v)
	}
	// The minority replica never applied anything while cut off; it only
	// has operations from when it held quorum (a) plus those after the
	// merge (c) — it missed b, which a production deployment would
	// recover by rejoining (state transfer), exercised elsewhere.
	mv, _ := apps["q1"].snapshot()
	if bytes.Contains(mv, []byte("b")) && !bytes.Equal(mv, []byte("abc")) {
		t.Fatalf("minority diverged: %q", mv)
	}
}
