package udpnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// freeRegistry builds a registry of localhost endpoints on free ports by
// binding each once to discover a port, then releasing it.
func freeRegistry(t *testing.T, ids ...memnet.NodeID) Registry {
	t.Helper()
	reg := make(Registry, len(ids))
	for _, id := range ids {
		probe, err := Listen(id, Registry{id: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		reg[id] = probe.Addr()
		if err := probe.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestListenRequiresRegistryEntry(t *testing.T) {
	if _, err := Listen("ghost", Registry{"a": "127.0.0.1:0"}); err == nil {
		t.Fatal("missing registry entry accepted")
	}
}

func TestBroadcastSelfDelivery(t *testing.T) {
	reg := freeRegistry(t, "solo")
	e, err := Listen("solo", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if err := e.Broadcast([]byte("loop")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-e.Recv():
		if p.From != "solo" || string(p.Payload) != "loop" {
			t.Fatalf("packet = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-delivery never arrived")
	}
}

func TestBroadcastReachesPeers(t *testing.T) {
	reg := freeRegistry(t, "a", "b", "c")
	eps := make(map[memnet.NodeID]*Endpoint, 3)
	for id := range reg {
		e, err := Listen(id, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		eps[id] = e
	}
	if err := eps["a"].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for id, e := range eps {
		select {
		case p := <-e.Recv():
			if p.From != "a" || string(p.Payload) != "hello" {
				t.Fatalf("%s got %+v", id, p)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never received the broadcast", id)
		}
	}
}

func TestBroadcastAfterClose(t *testing.T) {
	reg := freeRegistry(t, "x")
	e, err := Listen("x", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Broadcast([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTotemRingOverUDP runs a full totem ring over real UDP sockets:
// the protocol must install a ring and deliver in identical total order
// at every member — on the platform's default datapath (sendmmsg/recvmmsg
// on linux) and on the portable per-datagram path.
func TestTotemRingOverUDP(t *testing.T) {
	t.Run("batched", func(t *testing.T) { testTotemRingOverUDP(t, batchSupported) })
	t.Run("perdatagram", func(t *testing.T) { testTotemRingOverUDP(t, false) })
}

func testTotemRingOverUDP(t *testing.T, batched bool) {
	ids := []memnet.NodeID{"u0", "u1", "u2"}
	reg := freeRegistry(t, ids...)
	nodes := make(map[memnet.NodeID]*totem.Node, len(ids))
	for _, id := range ids {
		ep, err := listen(id, reg, Config{}, batched)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		node, err := totem.Start(totem.Config{
			Endpoint:      ep,
			Members:       ids,
			FailTimeout:   200 * time.Millisecond,
			GatherTimeout: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[id] = node
	}
	// Wait for ring installation everywhere.
	for id, n := range nodes {
		deadline := time.After(10 * time.Second)
		for installed := false; !installed; {
			select {
			case ev := <-n.Events():
				installed = ev.Type == totem.EventConfig && len(ev.Config.Members) == len(ids)
			case <-deadline:
				t.Fatalf("%s: ring never installed", id)
			}
		}
	}
	const per = 20
	for _, id := range ids {
		go func(n *totem.Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(nodes[id], id[1])
	}
	total := per * len(ids)
	collect := func(n *totem.Node) []totem.Delivery {
		out := make([]totem.Delivery, 0, total)
		deadline := time.After(15 * time.Second)
		for len(out) < total {
			select {
			case ev := <-n.Events():
				if ev.Type == totem.EventDeliver {
					out = append(out, ev.Delivery)
				}
			case <-deadline:
				t.Fatalf("timed out after %d/%d deliveries", len(out), total)
			}
		}
		return out
	}
	ref := collect(nodes[ids[0]])
	for _, id := range ids[1:] {
		got := collect(nodes[id])
		for i := range ref {
			if got[i].Seq != ref[i].Seq || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs over UDP: %+v vs %+v", id, i, got[i], ref[i])
			}
		}
	}
}

func TestFrameRoundTripSenderIdentity(t *testing.T) {
	reg := freeRegistry(t, "long-sender-name", "receiver")
	a, err := Listen("long-sender-name", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := Listen("receiver", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	payload := []byte(fmt.Sprintf("payload-%d", 42))
	if err := a.Broadcast(payload); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-b.Recv():
		if p.From != "long-sender-name" || string(p.Payload) != string(payload) {
			t.Fatalf("packet = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast never arrived")
	}
}
