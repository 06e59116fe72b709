package ftmgmt_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

const (
	grpObj replication.GroupID = 300
	keyObj                     = "app/obj"
)

func fastDomain(t *testing.T, nodes int) *domain.Domain {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:  "mgmt",
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
	return d
}

// versionedApp reports a version and counts invocations; used to observe
// upgrades.
type versionedApp struct {
	version int64

	mu  sync.Mutex
	ops int64
}

func (a *versionedApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "bump":
		a.ops++
		reply.WriteLongLong(a.ops)
		return nil
	case "version":
		reply.WriteLongLong(a.version)
		return nil
	default:
		return fmt.Errorf("versionedApp: unknown op %q", op)
	}
}

func (a *versionedApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.ops)
	return w.Bytes(), nil
}

func (a *versionedApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.ops = r.ReadLongLong()
	return r.Err()
}

func factoryV(version int64, track *[]*versionedApp, mu *sync.Mutex) ftmgmt.Factory {
	return func() (replication.Application, error) {
		app := &versionedApp{version: version}
		if track != nil {
			mu.Lock()
			*track = append(*track, app)
			mu.Unlock()
		}
		return app, nil
	}
}

func props(style replication.Style, initial, minR int) ftmgmt.Properties {
	return ftmgmt.Properties{
		Style:           style,
		InitialReplicas: initial,
		MinReplicas:     minR,
		ObjectKey:       []byte(keyObj),
		TypeID:          "IDL:eternalgw/Versioned:1.0",
	}
}

// invoke drives one invocation from a client-only member of the gateway
// group on node i.
func invoke(t *testing.T, d *domain.Domain, i int, reqID uint32, op string) (*cdr.Reader, error) {
	t.Helper()
	rm := d.Node(i).RM
	if err := rm.JoinGroup(domain.DefaultGatewayGroup, nil); err != nil && !errors.Is(err, replication.ErrAlreadyMember) {
		t.Fatal(err)
	}
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := rm.Invoke(domain.DefaultGatewayGroup, 1, grpObj,
		replication.OperationID{ChildSeq: reqID},
		giop.Request{RequestID: reqID, ResponseExpected: true, ObjectKey: []byte(keyObj), Operation: op},
		5*time.Second)
	if err != nil {
		return nil, err
	}
	return cdr.NewReader(rep.Result, rep.ResultOrder), nil
}

func TestCreateReplicatedObjectPlacesInitialReplicas(t *testing.T) {
	d := fastDomain(t, 4)
	var (
		mu   sync.Mutex
		apps []*versionedApp
	)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 3, 2), factoryV(1, &apps, &mu)); err != nil {
		t.Fatal(err)
	}
	members := d.Node(0).RM.Members(grpObj)
	if len(members) != 3 {
		t.Fatalf("members = %v", members)
	}
	seen := make(map[string]bool)
	for _, m := range members {
		if seen[string(m)] {
			t.Fatalf("replica placed twice on %s", m)
		}
		seen[string(m)] = true
	}
	if len(apps) != 3 {
		t.Fatalf("factory invoked %d times", len(apps))
	}
}

func TestCreateRejectsBadProperties(t *testing.T) {
	d := fastDomain(t, 2)
	err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 0, 0), factoryV(1, nil, nil))
	if !errors.Is(err, ftmgmt.ErrBadProps) {
		t.Fatalf("err = %v, want ErrBadProps", err)
	}
	err = d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 1, 2), factoryV(1, nil, nil))
	if !errors.Is(err, ftmgmt.ErrBadProps) {
		t.Fatalf("err = %v, want ErrBadProps", err)
	}
}

func TestCreateFailsWithTooFewHosts(t *testing.T) {
	d := fastDomain(t, 2)
	err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 3, 1), factoryV(1, nil, nil))
	if !errors.Is(err, ftmgmt.ErrNoHosts) {
		t.Fatalf("err = %v, want ErrNoHosts", err)
	}
}

func TestResourceManagerRestoresMinimum(t *testing.T) {
	// Paper section 2: the Resource Manager maintains the initial and
	// minimum number of replicas.
	d := fastDomain(t, 4)
	var (
		mu   sync.Mutex
		apps []*versionedApp
	)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 2), factoryV(1, &apps, &mu)); err != nil {
		t.Fatal(err)
	}
	d.Manager().Monitor(15 * time.Millisecond)

	// Run some load so the replacement has state to pick up.
	if _, err := invoke(t, d, 3, 1, "bump"); err != nil {
		t.Fatal(err)
	}

	members := d.Node(3).RM.Members(grpObj)
	crashed := members[0]
	for i := 0; i < d.Nodes(); i++ {
		if d.Node(i).ID == crashed {
			d.CrashNode(i)
			break
		}
	}
	// The monitor must detect the loss and place a replacement.
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := d.Node(3).RM.Members(grpObj)
		if len(alive) >= 2 && !contains(alive, crashed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never restored: %v", alive)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replacement carries the state (ops executed so far).
	r, err := invoke(t, d, 3, 2, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 2 {
		t.Fatalf("ops after replacement = %d, want 2", got)
	}
}

func TestEvolutionManagerUpgradesLive(t *testing.T) {
	// Paper section 2: the Evolution Manager exploits replication to
	// upgrade objects; state carries over and the object stays
	// available.
	d := fastDomain(t, 4)
	var (
		mu   sync.Mutex
		apps []*versionedApp
	)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 1), factoryV(1, &apps, &mu)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := invoke(t, d, 3, uint32(i), "bump"); err != nil {
			t.Fatal(err)
		}
	}
	r, err := invoke(t, d, 3, 4, "version")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("version = %d, want 1", got)
	}

	if err := d.Manager().Upgrade(grpObj, factoryV(2, &apps, &mu)); err != nil {
		t.Fatal(err)
	}
	// Wait until the old replicas retired.
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Node(3).RM.Members(grpObj)) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("members after upgrade = %v", d.Node(3).RM.Members(grpObj))
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, err = invoke(t, d, 3, 5, "version")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 2 {
		t.Fatalf("version after upgrade = %d, want 2", got)
	}
	// State survived the upgrade: 3 bumps before + 1 now = 4.
	r, err = invoke(t, d, 3, 6, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 4 {
		t.Fatalf("ops after upgrade = %d, want 4", got)
	}
}

func TestPropertiesLookup(t *testing.T) {
	d := fastDomain(t, 2)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.WarmPassive, 2, 1), factoryV(1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	p, ok := d.Manager().Properties(grpObj)
	if !ok || p.Style != replication.WarmPassive || p.InitialReplicas != 2 {
		t.Fatalf("properties = %+v, %v", p, ok)
	}
	if _, ok := d.Manager().Properties(999); ok {
		t.Fatal("unknown group reported properties")
	}
}

func TestUpgradeUnknownGroup(t *testing.T) {
	d := fastDomain(t, 2)
	if err := d.Manager().Upgrade(12345, factoryV(2, nil, nil)); !errors.Is(err, ftmgmt.ErrUnknownGroup) {
		t.Fatalf("err = %v, want ErrUnknownGroup", err)
	}
}

func contains(list []memnet.NodeID, v memnet.NodeID) bool {
	for _, m := range list {
		if m == v {
			return true
		}
	}
	return false
}

func TestRemoveHostRepairsImmediately(t *testing.T) {
	// A withdrawn host usually means a failed host: RemoveHost must run
	// a Resource Manager pass itself instead of leaving the group
	// under-replicated until the next Monitor tick (the monitor is
	// deliberately not started here).
	d := fastDomain(t, 4)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 2), factoryV(1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := invoke(t, d, 3, 1, "bump"); err != nil {
		t.Fatal(err)
	}

	crashed := d.Node(3).RM.Members(grpObj)[0]
	for i := 0; i < d.Nodes(); i++ {
		if d.Node(i).ID == crashed {
			d.CrashNode(i)
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for contains(d.Node(3).RM.Members(grpObj), crashed) {
		if time.Now().After(deadline) {
			t.Fatalf("failure never detected: %v", d.Node(3).RM.Members(grpObj))
		}
		time.Sleep(5 * time.Millisecond)
	}

	d.Manager().RemoveHost(crashed)
	// No polling: the repair happened inside RemoveHost.
	alive := d.Node(3).RM.Members(grpObj)
	if len(alive) < 2 || contains(alive, crashed) {
		t.Fatalf("members after RemoveHost = %v, want 2 live without %s", alive, crashed)
	}
	r, err := invoke(t, d, 3, 2, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 2 {
		t.Fatalf("ops after repair = %d, want 2", got)
	}
}

func TestElasticGrowShrink(t *testing.T) {
	d := fastDomain(t, 3)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 2), factoryV(1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	v, err := d.Manager().Grow(grpObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 3 {
		t.Fatalf("members after grow = %v, want 3", v.Members)
	}
	v, err = d.Manager().Shrink(grpObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 {
		t.Fatalf("members after shrink = %v, want 2", v.Members)
	}
	if _, err := d.Manager().Shrink(grpObj); !errors.Is(err, ftmgmt.ErrMinReplicas) {
		t.Fatalf("shrink below minimum: err = %v, want ErrMinReplicas", err)
	}
	if _, err := d.Manager().Grow(54321); !errors.Is(err, ftmgmt.ErrUnknownGroup) {
		t.Fatalf("grow unknown group: err = %v, want ErrUnknownGroup", err)
	}
}

func TestReplaceCarriesState(t *testing.T) {
	d := fastDomain(t, 3)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 1), factoryV(1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := invoke(t, d, 2, 1, "bump"); err != nil {
		t.Fatal(err)
	}
	old := d.Node(2).RM.Members(grpObj)[0]
	v, err := d.Manager().Replace(grpObj, old)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 || contains(v.Members, old) {
		t.Fatalf("members after replace = %v, want 2 without %s", v.Members, old)
	}
	r, err := invoke(t, d, 2, 2, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 2 {
		t.Fatalf("ops after replace = %d, want 2", got)
	}
}

func TestUpgradePackedDomainCarriesState(t *testing.T) {
	// Every host already runs a replica: the upgrade must retire each
	// old replica first and reuse its host, with the survivor donating
	// state by checkpoint + log replay.
	d := fastDomain(t, 2)
	if err := d.Manager().CreateReplicatedObject(grpObj, props(replication.Active, 2, 1), factoryV(1, nil, nil)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := invoke(t, d, 0, uint32(i), "bump"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Manager().Upgrade(grpObj, factoryV(2, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if members := d.Node(0).RM.Members(grpObj); len(members) != 2 {
		t.Fatalf("members after packed upgrade = %v, want 2", members)
	}
	r, err := invoke(t, d, 0, 4, "version")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 2 {
		t.Fatalf("version after packed upgrade = %d, want 2", got)
	}
	r, err = invoke(t, d, 0, 5, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 4 {
		t.Fatalf("ops after packed upgrade = %d, want 4", got)
	}
}
