package interceptor_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/interceptor"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

func TestGatewayAddrRewritesAdvertisement(t *testing.T) {
	a := interceptor.GatewayAddr{Host: "gw.example", Port: 9021}
	h, p := a.AdvertisedAddr("server.internal", 34567)
	if h != "gw.example" || p != 9021 {
		t.Fatalf("advertised = %s:%d", h, p)
	}
}

func TestGatewayAddrPlugsIntoORB(t *testing.T) {
	// The interceptor hook replaces the server's address when the ORB
	// publishes an IOR (paper section 3.1): the published profile never
	// names the real server endpoint.
	s, err := orb.NewServer("127.0.0.1:0", orb.WithAdvertiser(interceptor.GatewayAddr{Host: "gw", Port: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	ref := s.IOR("IDL:X:1.0", []byte("k"))
	p, err := ref.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "gw" || p.Port != 1 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Addr() == s.Addr() {
		t.Fatal("published IOR leaked the server's real address")
	}
}

func TestStitchIORProducesOrderedProfiles(t *testing.T) {
	ref := interceptor.StitchIOR("IDL:X:1.0", []byte("key"),
		interceptor.GatewayAddr{Host: "gw1", Port: 1},
		interceptor.GatewayAddr{Host: "gw2", Port: 2},
	)
	ps, err := ref.IIOPProfiles()
	if err != nil || len(ps) != 2 {
		t.Fatalf("profiles = %v, %v", ps, err)
	}
	if ps[0].Host != "gw1" || ps[1].Host != "gw2" {
		t.Fatalf("order = %s, %s", ps[0].Host, ps[1].Host)
	}
	for _, p := range ps {
		if string(p.ObjectKey) != "key" {
			t.Fatalf("object key = %q", p.ObjectKey)
		}
	}
}

// echoApp echoes its argument.
type echoApp struct{ mu sync.Mutex }

func (a *echoApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	if op != "echo" {
		return errors.New("echoApp: unknown op")
	}
	reply.WriteOctetSeq(args.ReadOctetSeq())
	return args.Err()
}
func (a *echoApp) State() ([]byte, error) { return nil, nil }
func (a *echoApp) SetState([]byte) error  { return nil }

func TestDiverterRoutesThroughInfrastructure(t *testing.T) {
	// An in-domain client's connection establishment is diverted: the
	// TCP endpoint in the IOR is ignored and invocations travel through
	// the replication mechanisms.
	d, err := domain.New(domain.Config{
		Name:  "dv",
		Nodes: 3,
		Totem: totem.Config{
			FailTimeout:   80 * time.Millisecond,
			GatherTimeout: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const grp replication.GroupID = 50
	key := []byte("svc/echo")
	err = d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       key,
	}, func() (replication.Application, error) { return &echoApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}

	// The client-side group (a client-only membership, as a replicated
	// client's mechanisms would hold).
	const clientGrp replication.GroupID = 51
	rm := d.Node(2).RM
	if err := rm.CreateGroup(clientGrp, replication.Active, nil); err != nil {
		t.Fatal(err)
	}
	if err := rm.WaitForGroup(clientGrp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rm.JoinGroup(clientGrp, nil); err != nil {
		t.Fatal(err)
	}
	if err := rm.WaitSynced(clientGrp, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// An IOR whose TCP endpoint is somewhere unreachable: the diverter
	// must never use it.
	ref := interceptor.StitchIOR("IDL:X:1.0", key, interceptor.GatewayAddr{Host: "203.0.113.1", Port: 1})
	div := interceptor.NewDiverter(rm, clientGrp)
	conn, err := div.Connect(ref)
	if err != nil {
		t.Fatal(err)
	}
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctetSeq([]byte("ping"))
	r, err := conn.Call("echo", w.Bytes(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadOctetSeq(); !bytes.Equal(got, []byte("ping")) {
		t.Fatalf("echo = %q", got)
	}
}

func TestDiverterUnknownKey(t *testing.T) {
	d, err := domain.New(domain.Config{
		Name:  "dv2",
		Nodes: 1,
		Totem: totem.Config{
			FailTimeout:   80 * time.Millisecond,
			GatherTimeout: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	div := interceptor.NewDiverter(d.Node(0).RM, domain.DefaultGatewayGroup)
	if _, err := div.ConnectKey([]byte("nope")); !errors.Is(err, replication.ErrNoSuchGroup) {
		t.Fatalf("err = %v, want ErrNoSuchGroup", err)
	}
}
