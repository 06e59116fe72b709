package main

import (
	"bytes"
	"eternalgw/internal/experiments"
	"fmt"
	"sync"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// runE3DuplicateSuppression reproduces figure 3: an unreplicated client
// invoking through the gateway receives exactly one response per
// request, with the other k-1 copies (one per active server replica)
// detected and suppressed by response identifier.
func runE3DuplicateSuppression(cfg Config) (Result, error) {
	ops := cfg.ops(100, 15)
	var rows [][]string
	for _, k := range []int{1, 2, 3, 5} {
		d, err := newDomain("ny", k+1)
		if err != nil {
			return Result{}, err
		}
		apps, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, k)
		if err != nil {
			d.Close()
			return Result{}, err
		}
		gw, err := d.AddGateway(k, "")
		if err != nil {
			d.Close()
			return Result{}, err
		}
		conn, err := orb.Dial(gw.Addr())
		if err != nil {
			d.Close()
			return Result{}, err
		}
		for i := 0; i < ops; i++ {
			if _, err := conn.Call([]byte(expServerKey), "append", experiments.OctetSeqArg([]byte("x")), orb.InvokeOptions{}); err != nil {
				_ = conn.Close()
				d.Close()
				return Result{}, err
			}
		}
		// Let the trailing duplicate responses drain.
		wantDup := uint64(ops * (k - 1))
		deadline := time.Now().Add(3 * time.Second)
		rmStats := d.Node(k).RM.Stats()
		for rmStats.DuplicateResponses < wantDup && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			rmStats = d.Node(k).RM.Stats()
		}
		executedOnceEverywhere := true
		for _, app := range apps {
			if app.Ops() != int64(ops) {
				executedOnceEverywhere = false
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", rmStats.ResponsesDelivered),
			fmt.Sprintf("%d", rmStats.DuplicateResponses),
			fmt.Sprintf("%d", wantDup),
			fmt.Sprintf("%v", executedOnceEverywhere),
		})
		_ = conn.Close()
		d.Close()
	}
	return Result{
		ID:      "E3",
		Title:   "Duplicate response suppression at the gateway",
		Source:  "Figure 3 / Section 3.3",
		Headers: []string{"replicas k", "requests", "delivered", "duplicates suppressed", "expected k-1 per op", "each replica executed once"},
		Rows:    rows,
		Notes: []string{
			"expected shape: exactly one response delivered per request; (k-1) x requests duplicate copies suppressed; every replica executes every operation exactly once",
		},
	}, nil
}

// opIDRecorder wraps a experiments.RegisterApp and records the operation identifier
// stream its replica observes, via the replication observer.
type opIDRecorder struct {
	mu  sync.Mutex
	ids []replication.OperationID
}

func (r *opIDRecorder) record(id replication.OperationID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids = append(r.ids, id)
}

func (r *opIDRecorder) snapshot() []replication.OperationID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]replication.OperationID(nil), r.ids...)
}

// relayRegister forwards "relay" calls to a nested target group; used to
// generate nested operation identifiers.
type relayRegister struct {
	h *replication.Handle
}

func (a *relayRegister) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	if op != "relay" {
		return fmt.Errorf("relayRegister: unknown op %q", op)
	}
	payload := args.ReadOctetSeq()
	if err := args.Err(); err != nil {
		return err
	}
	r, err := a.h.Invoke([]byte("exp/nested"), "append", experiments.OctetSeqArg(payload), 10*time.Second)
	if err != nil {
		return err
	}
	reply.WriteLongLong(r.ReadLongLong())
	return r.Err()
}

func (a *relayRegister) State() ([]byte, error) { return nil, nil }
func (a *relayRegister) SetState([]byte) error  { return nil }

// runE6OperationIdentifiers reproduces figure 6: invocation, response
// and operation identifiers. It drives nested invocations through two
// replicated groups and checks that (1) every top-level and nested
// operation has a unique operation identifier, (2) replicas of the
// issuing group determine identical identifiers (evidenced by the nested
// target executing each operation exactly once), and (3) responses carry
// the identifier of their invocation.
func runE6OperationIdentifiers(cfg Config) (Result, error) {
	ops := cfg.ops(100, 15)
	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()

	const (
		frontGrp  replication.GroupID = 120
		nestedGrp replication.GroupID = 121
	)
	nestedApps, err := deployRegisters(d, nestedGrp, "exp/nested", replication.Active, 2)
	if err != nil {
		return Result{}, err
	}
	// Front group: two relay replicas, each issuing nested invocations.
	if err := d.Node(0).RM.CreateGroup(frontGrp, replication.Active, []byte("exp/front")); err != nil {
		return Result{}, err
	}
	for i := 0; i < 2; i++ {
		rm := d.Node(i).RM
		if err := rm.WaitForGroup(frontGrp, 5*time.Second); err != nil {
			return Result{}, err
		}
		if err := rm.JoinGroup(frontGrp, &relayRegister{h: rm.Handle(frontGrp)}); err != nil {
			return Result{}, err
		}
		if err := rm.WaitSynced(frontGrp, 5*time.Second); err != nil {
			return Result{}, err
		}
	}

	// Record the nested group's invocation identifier stream at node 0
	// (observers fire only at group members; node 0 hosts a nested
	// replica).
	rec := &opIDRecorder{}
	d.Node(0).RM.SetObserver(nestedGrp, func(msg replication.Message, ts uint64) {
		if msg.Header.Kind == replication.KindInvocation {
			rec.record(msg.Header.Op)
		}
	})

	gw, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn.Close() }()
	for i := 0; i < ops; i++ {
		if _, err := conn.Call([]byte("exp/front"), "relay", experiments.OctetSeqArg([]byte("n")), orb.InvokeOptions{}); err != nil {
			return Result{}, err
		}
	}

	// Wait for the nested replicas to finish executing.
	deadline := time.Now().Add(5 * time.Second)
	for nestedApps[0].Ops() < int64(ops) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ids := rec.snapshot()
	distinct := make(map[replication.OperationID]int)
	for _, id := range ids {
		distinct[id]++
	}
	nonZeroParents := 0
	for id := range distinct {
		if id.ParentTS != 0 {
			nonZeroParents++
		}
	}
	identical := nestedApps[0].Ops() == int64(ops) && nestedApps[1].Ops() == int64(ops) &&
		bytes.Equal(nestedApps[0].Value(), nestedApps[1].Value())

	return Result{
		ID:      "E6",
		Title:   "Operation identifiers for nested invocations",
		Source:  "Figure 6 / Section 3.3",
		Headers: []string{"quantity", "value"},
		Rows: [][]string{
			{"top-level operations issued", fmt.Sprint(ops)},
			{"nested invocation messages observed (2 issuing replicas)", fmt.Sprint(len(ids))},
			{"distinct nested operation identifiers", fmt.Sprint(len(distinct))},
			{"identifiers with parent timestamp (T_A_inv) set", fmt.Sprint(nonZeroParents)},
			{"nested target executed each op exactly once at every replica", fmt.Sprint(identical)},
		},
		Notes: []string{
			"both issuing replicas compute (T_A_inv, S_A_inv) identically, so ~2 messages per operation collapse to one distinct identifier and one execution",
		},
	}, nil
}

// runE11ReplicaConsistency reproduces the strong-replica-consistency
// claim of section 2.2: concurrent clients through the gateway, with the
// totally-ordered delivery forcing every replica through the identical
// state sequence.
func runE11ReplicaConsistency(cfg Config) (Result, error) {
	clients := 4
	per := cfg.ops(50, 10)
	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	apps, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 3)
	if err != nil {
		return Result{}, err
	}
	gw, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			conn, err := orb.Dial(gw.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = conn.Close() }()
			for i := 0; i < per; i++ {
				if _, err := conn.Call([]byte(expServerKey), "append", experiments.OctetSeqArg([]byte{tag}), orb.InvokeOptions{}); err != nil {
					errCh <- err
					return
				}
			}
		}(byte('A' + c))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}

	total := int64(clients * per)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, app := range apps {
			if app.Ops() != total {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	consistent := bytes.Equal(apps[0].Value(), apps[1].Value()) && bytes.Equal(apps[1].Value(), apps[2].Value())
	return Result{
		ID:      "E11",
		Title:   "Strong replica consistency under concurrent clients",
		Source:  "Section 2.2",
		Headers: []string{"quantity", "value"},
		Rows: [][]string{
			{"concurrent clients", fmt.Sprint(clients)},
			{"operations per client", fmt.Sprint(per)},
			{"replica 0 ops", fmt.Sprint(apps[0].Ops())},
			{"replica 1 ops", fmt.Sprint(apps[1].Ops())},
			{"replica 2 ops", fmt.Sprint(apps[2].Ops())},
			{"replica states byte-identical", fmt.Sprint(consistent)},
		},
		Notes: []string{
			"the interleaving of the clients' appends is arbitrary, but identical at every replica: total order is what turns concurrency into determinism",
		},
	}, nil
}
