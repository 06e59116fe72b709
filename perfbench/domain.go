package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

const (
	serverGroup replication.GroupID = 100
	serverKey                       = "perfbench/register"
	serverType                      = "IDL:eternalgw/Register:1.0"
)

// setupTimes splits one set-up into the stages the per-layer metrics
// name. total runs from domain.New to the first successful reply.
type setupTimes struct {
	total, domainNew, gatewayJoin, promote time.Duration
}

// bench is one running domain with the clients the workload drives.
type bench struct {
	w     workload
	d     *domain.Domain
	udp   []*udpnet.Endpoint
	setup setupTimes

	// conns carry the closed loop; clients the open loop.
	conns   []*orb.Conn
	clients []*thinclient.Client

	mu   sync.Mutex
	apps []*experiments.RegisterApp // every replica ever created
	gws  []*core.Gateway            // every gateway ever added
	live map[int]*core.Gateway      // serving gateway per processor
	ref  ior.Ref                    // latest published reference
}

// stand builds a domain for w the way the daemon does by default, and
// connects the workload's clients. It returns once a first invocation
// through a gateway has been answered.
func stand(w workload, conns int, tracer *obs.Tracer) (*bench, error) {
	b := &bench{w: w, live: make(map[int]*core.Gateway)}
	cfg := domain.Config{
		Name:        "bench",
		Nodes:       w.nodes,
		Tracer:      tracer,
		OnIORUpdate: func(_ []byte, ref ior.Ref) { b.refresh(ref) },
	}
	cfg.Totem.Ordering = w.ordering
	if w.udp {
		factory, err := b.udpFactory(w.nodes)
		if err != nil {
			return nil, err
		}
		cfg.TransportFactory = factory
	}

	start := time.Now()
	d, err := domain.New(cfg)
	if err != nil {
		b.closeUDP()
		return nil, fmt.Errorf("domain: %w", err)
	}
	b.d = d
	b.setup.domainNew = time.Since(start)
	if err := b.deploy(conns); err != nil {
		b.close()
		return nil, err
	}
	b.setup.total = time.Since(start)
	return b, nil
}

// deploy places the replicated register, adds the gateways, waits for
// the fast path when the workload orders by leader, and connects the
// clients with one answered call.
func (b *bench) deploy(conns int) error {
	w := b.w
	err := b.d.Manager().CreateReplicatedObject(serverGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(serverKey),
		TypeID:          serverType,
	}, b.newApp)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	b.d.Manager().Monitor(monitorInterval)

	t := time.Now()
	for _, n := range w.gateways {
		if err := b.addGateway(n); err != nil {
			return err
		}
	}
	b.setup.gatewayJoin = time.Since(t)
	ref, err := b.d.PublishIOR(serverType, []byte(serverKey))
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.ref = ref
	b.mu.Unlock()

	if w.ordering == totem.OrderingLeader {
		t = time.Now()
		if err := b.waitFastpath(10 * time.Second); err != nil {
			return err
		}
		b.setup.promote = time.Since(t)
	}

	if w.openLoop() {
		for i := 0; i < conns; i++ {
			c, err := thinclient.Dial(ref, thinclient.Config{})
			if err != nil {
				return fmt.Errorf("thin client: %w", err)
			}
			b.mu.Lock()
			b.clients = append(b.clients, c)
			b.mu.Unlock()
		}
		_, err = b.clients[0].Call("ops", nil)
		return err
	}
	addr := b.live[w.gateways[0]].Addr()
	for i := 0; i < conns; i++ {
		c, err := orb.Dial(addr)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, c)
	}
	_, err = b.conns[0].Call([]byte(serverKey), "echo", experiments.OctetSeqArg([]byte("warm")), orb.InvokeOptions{})
	return err
}

func (b *bench) newApp() (replication.Application, error) {
	app := &experiments.RegisterApp{}
	b.mu.Lock()
	b.apps = append(b.apps, app)
	b.mu.Unlock()
	return app, nil
}

// addGateway starts a gateway on processor n and records it.
func (b *bench) addGateway(n int) error {
	gw, err := b.d.AddGateway(n, "")
	if err != nil {
		return fmt.Errorf("gateway on p%02d: %w", n, err)
	}
	b.mu.Lock()
	b.gws = append(b.gws, gw)
	b.live[n] = gw
	b.mu.Unlock()
	return nil
}

// refresh hands a republished reference to the thin clients, as an
// enhanced client ORB watching the name service would.
func (b *bench) refresh(ref ior.Ref) {
	b.mu.Lock()
	b.ref = ref
	clients := append([]*thinclient.Client(nil), b.clients...)
	b.mu.Unlock()
	for _, c := range clients {
		_ = c.RefreshProfiles(ref) // a stitched reference always has profiles
	}
}

// waitFastpath blocks until every processor agrees on one sequencer.
func (b *bench) waitFastpath(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if b.fastpathAgreed() {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("leader ordering: processors never agreed on a sequencer")
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *bench) fastpathAgreed() bool {
	var leader memnet.NodeID
	var start uint64
	for i := 0; i < b.d.Nodes(); i++ {
		l, s, ok := b.d.Node(i).Totem.Fastpath()
		if !ok || (i > 0 && (l != leader || s != start)) {
			return false
		}
		leader, start = l, s
	}
	return true
}

// udpFactory binds one localhost UDP socket per processor, as the
// daemon's -udp mode does, and keeps the endpoints for their counters.
func (b *bench) udpFactory(nodes int) (func(memnet.NodeID) (totem.Transport, error), error) {
	registry := make(udpnet.Registry, nodes)
	for i := 0; i < nodes; i++ {
		id := memnet.NodeID(fmt.Sprintf("bench/p%02d", i))
		probe, err := udpnet.Listen(id, udpnet.Registry{id: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		registry[id] = probe.Addr()
		if err := probe.Close(); err != nil {
			return nil, err
		}
	}
	return func(id memnet.NodeID) (totem.Transport, error) {
		ep, err := udpnet.ListenConfig(id, registry, udpnet.Config{})
		if err != nil {
			return nil, err
		}
		b.udp = append(b.udp, ep)
		return ep, nil
	}, nil
}

func (b *bench) gateways() []*core.Gateway {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*core.Gateway(nil), b.gws...)
}

func (b *bench) replicaApps() []*experiments.RegisterApp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*experiments.RegisterApp(nil), b.apps...)
}

func (b *bench) latestRef() ior.Ref {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ref
}

// close stops the clients, the domain and its sockets.
func (b *bench) close() {
	for _, c := range b.conns {
		_ = c.Close()
	}
	b.mu.Lock()
	clients := b.clients
	b.clients = nil
	b.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	if b.d != nil {
		b.d.Close()
	}
	b.closeUDP()
}

func (b *bench) closeUDP() {
	for _, ep := range b.udp {
		_ = ep.Close()
	}
}
