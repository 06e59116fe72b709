package naming_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/ior"
	"eternalgw/internal/naming"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

const nameGroup replication.GroupID = 400

func newDomainWithNaming(t *testing.T, nodes, replicas int) (*domain.Domain, *naming.Resolver, *orb.Conn) {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:  "ns",
		Nodes: nodes,
		Totem: totem.Config{
			FailTimeout:   80 * time.Millisecond,
			GatherTimeout: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	err = d.Manager().CreateReplicatedObject(nameGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: replicas,
		MinReplicas:     1,
		ObjectKey:       []byte(naming.ObjectKey),
		TypeID:          naming.TypeID,
	}, func() (replication.Application, error) { return naming.NewService(), nil })
	if err != nil {
		t.Fatal(err)
	}
	gw, err := d.AddGateway(nodes-1, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return d, naming.ViaConn(conn), conn
}

func sampleRef(host string) ior.Ref {
	return ior.New("IDL:App/Svc:1.0", ior.IIOPProfile{Host: host, Port: 9000, ObjectKey: []byte("svc")})
}

func TestBindResolveRoundTrip(t *testing.T) {
	_, res, _ := newDomainWithNaming(t, 3, 2)
	ref := sampleRef("gw.example")
	if err := res.Bind("trading/exchange", ref); err != nil {
		t.Fatal(err)
	}
	got, err := res.Resolve("trading/exchange")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != ref.String() {
		t.Fatalf("resolved %q, want %q", got.String(), ref.String())
	}
}

func TestBindDuplicateRejected(t *testing.T) {
	_, res, _ := newDomainWithNaming(t, 2, 1)
	if err := res.Bind("x", sampleRef("a")); err != nil {
		t.Fatal(err)
	}
	err := res.Bind("x", sampleRef("b"))
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != naming.RepoAlreadyBound {
		t.Fatalf("err = %v, want AlreadyBound", err)
	}
	// Rebind replaces.
	if err := res.Rebind("x", sampleRef("b")); err != nil {
		t.Fatal(err)
	}
	got, err := res.Resolve("x")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := got.PrimaryProfile()
	if p.Host != "b" {
		t.Fatalf("resolved host = %q", p.Host)
	}
}

func TestResolveUnknownName(t *testing.T) {
	_, res, _ := newDomainWithNaming(t, 2, 1)
	_, err := res.Resolve("nope")
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != naming.RepoNotFound {
		t.Fatalf("err = %v, want NotFound", err)
	}
}

func TestUnbindAndList(t *testing.T) {
	_, res, _ := newDomainWithNaming(t, 2, 1)
	for _, name := range []string{"b", "a", "c"} {
		if err := res.Bind(name, sampleRef(name)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := res.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Fatalf("list = %v", names)
	}
	if err := res.Unbind("b"); err != nil {
		t.Fatal(err)
	}
	names, _ = res.List()
	if !reflect.DeepEqual(names, []string{"a", "c"}) {
		t.Fatalf("list after unbind = %v", names)
	}
	var sysEx *orb.SystemException
	if err := res.Unbind("b"); !errors.As(err, &sysEx) || sysEx.RepoID != naming.RepoNotFound {
		t.Fatalf("double unbind err = %v", err)
	}
}

func TestNamingSurvivesReplicaCrash(t *testing.T) {
	// The name service is just another replicated object: bindings
	// survive the crash of the replica's processor.
	d, res, _ := newDomainWithNaming(t, 4, 2)
	if err := res.Bind("durable", sampleRef("keep")); err != nil {
		t.Fatal(err)
	}
	victim := d.Node(3).RM.Members(nameGroup)[0]
	for i := 0; i < d.Nodes(); i++ {
		if d.Node(i).ID == victim {
			d.CrashNode(i)
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Node(3).RM.Members(nameGroup)) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("membership never settled: %v", d.Node(3).RM.Members(nameGroup))
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := res.Resolve("durable")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := got.PrimaryProfile()
	if p.Host != "keep" {
		t.Fatalf("resolved host = %q after crash", p.Host)
	}
}

func TestEndToEndDiscoveryThroughNaming(t *testing.T) {
	// The full pattern: a client holding only the name-service IOR
	// discovers and invokes an application object.
	d, res, conn := newDomainWithNaming(t, 3, 1)

	// Deploy an application object and bind its published IOR.
	const appGroup replication.GroupID = 401
	appKey := []byte("app/counter")
	err := d.Manager().CreateReplicatedObject(appGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       appKey,
	}, func() (replication.Application, error) { return naming.NewService(), nil })
	if err != nil {
		t.Fatal(err)
	}
	appRef, err := d.PublishIOR("IDL:App/Svc:1.0", appKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Bind("app", appRef); err != nil {
		t.Fatal(err)
	}

	// The client resolves "app" and invokes it (here: a nested naming
	// service reused as the app, exercising bind through the resolved
	// reference).
	got, err := res.Resolve("app")
	if err != nil {
		t.Fatal(err)
	}
	p, err := got.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	appRes := naming.NewResolver(func(op string, args []byte) (*cdr.Reader, error) {
		return conn.Call(p.ObjectKey, op, args, orb.InvokeOptions{})
	})
	if err := appRes.Bind("inner", sampleRef("deep")); err != nil {
		t.Fatal(err)
	}
	inner, err := appRes.Resolve("inner")
	if err != nil {
		t.Fatal(err)
	}
	ip, _ := inner.PrimaryProfile()
	if ip.Host != "deep" {
		t.Fatalf("inner host = %q", ip.Host)
	}
}
