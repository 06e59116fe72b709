package main

import (
	"eternalgw/internal/experiments"
	"fmt"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/faultinject"
	"eternalgw/internal/giop"
	"eternalgw/internal/metrics"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
)

// runE7SingleGatewayFailure reproduces section 3.4: with existing ORBs
// (single-profile IORs, no client identifiers) the gateway is a single
// point of failure. The client's in-flight requests are abandoned when
// the gateway dies, and a naive resend through a recovered gateway
// duplicates the operation.
func runE7SingleGatewayFailure(cfg Config) (Result, error) {
	total := cfg.ops(40, 12)
	killAt := total / 2

	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	apps, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 2)
	if err != nil {
		return Result{}, err
	}
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}

	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn.Close() }()

	completed, abandoned := 0, 0
	var pendingResend []pendingReq
	for i := 1; i <= killAt-1; i++ {
		_, err := conn.Call([]byte(expServerKey), "append", experiments.OctetSeqArg([]byte("x")), orb.InvokeOptions{RequestID: uint32(i), Timeout: 2 * time.Second})
		if err != nil {
			return Result{}, err
		}
		completed++
	}

	// Request killAt is a slow operation: it reaches the domain and
	// starts executing, then the gateway process fails before the
	// response can be returned. The client observes only a dead
	// connection — the fate of the request is unknowable to it.
	inFlight := make(chan error, 1)
	go func() {
		_, err := conn.Call([]byte(expServerKey), "work", experiments.WorkArg(150, []byte("x")), orb.InvokeOptions{RequestID: uint32(killAt), Timeout: 2 * time.Second})
		inFlight <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the domain
	_ = gw1.Close()                   // the gateway process fails
	if err := <-inFlight; err == nil {
		return Result{}, fmt.Errorf("in-flight request survived the gateway failure")
	}
	abandoned++
	pendingResend = append(pendingResend, pendingReq{id: uint32(killAt), op: "work", args: experiments.WorkArg(150, []byte("x"))})

	// Requests after the failure also fail: the single gateway was the
	// only way in.
	for i := killAt + 1; i <= total; i++ {
		_, err := conn.Call([]byte(expServerKey), "append", experiments.OctetSeqArg([]byte("x")), orb.InvokeOptions{RequestID: uint32(i), Timeout: 300 * time.Millisecond})
		if err == nil {
			return Result{}, fmt.Errorf("request through dead gateway succeeded")
		}
		abandoned++
		pendingResend = append(pendingResend, pendingReq{id: uint32(i), op: "append", args: experiments.OctetSeqArg([]byte("x"))})
	}

	// The gateway recovers; the client reconnects and resends every
	// request it never got an answer for — the paper's unpreventable
	// duplication, because the recovered gateway cannot identify the
	// client (section 3.4): the in-flight operation had already executed
	// inside the domain, and now executes a second time.
	gw2, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}
	conn2, err := orb.Dial(gw2.Addr())
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn2.Close() }()
	resent := 0
	for _, p := range pendingResend {
		if _, err := conn2.Call([]byte(expServerKey), p.op, p.args, orb.InvokeOptions{RequestID: p.id, Timeout: 2 * time.Second}); err == nil {
			resent++
		}
	}

	// Count how many operations actually executed: anything beyond the
	// client's distinct requests is a duplicate. The client's last resend
	// returned with the first replica's reply, so a slower replica may
	// still be one operation short: wait until the replicas agree.
	distinct := int64(completed + len(pendingResend))
	executed := settledOps(apps, distinct, 3*time.Second)
	reExecuted := executed - distinct
	if reExecuted < 0 {
		reExecuted = 0
	}

	return Result{
		ID:      "E7",
		Title:   "Single gateway is a single point of failure (plain ORBs)",
		Source:  "Section 3.4",
		Headers: []string{"quantity", "value"},
		Rows: [][]string{
			{"requests attempted", fmt.Sprint(total)},
			{"completed before failure", fmt.Sprint(completed)},
			{"abandoned (no response, fate unknown)", fmt.Sprint(abandoned)},
			{"of which in flight inside the domain", "1"},
			{"resent after reconnection", fmt.Sprint(resent)},
			{"distinct operations the client issued", fmt.Sprint(distinct)},
			{"operations executed by the servers", fmt.Sprint(executed)},
			{"re-executions (state corruption risk)", fmt.Sprint(reExecuted)},
		},
		Notes: []string{
			"expected shape: abandoned > 0 (the client never learns those requests' fate) and re-executions > 0 — the in-flight operation had executed before the crash, and the recovered gateway cannot recognize the resend because counter-assigned client identifiers die with the gateway",
		},
	}, nil
}

// pendingReq is a request the plain client must resend after the
// gateway failure.
type pendingReq struct {
	id   uint32
	op   string
	args []byte
}

// runE8GatewayFailover reproduces section 3.5: redundant gateways plus
// the enhanced client-side interception layer. The client fails over to
// the next profile, reissues pending invocations, and no operation is
// lost or executed twice.
func runE8GatewayFailover(cfg Config) (Result, error) {
	total := cfg.ops(60, 15)
	killAt := total / 3

	d, err := newDomain("ny", 4)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	apps, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 2)
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < 3; i++ {
		if _, err := d.AddGateway((i+2)%4, ""); err != nil {
			return Result{}, err
		}
	}
	ref, err := d.PublishIOR("IDL:eternalgw/Register:1.0", []byte(expServerKey))
	if err != nil {
		return Result{}, err
	}
	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second})
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = c.Close() }()

	// The fault schedule: kill two of the three gateways at fixed
	// operation counts, so the run is reproducible.
	plan := faultinject.NewPlan(
		faultinject.Step{AtOp: uint64(killAt), Name: "kill gateway 0", Action: func() { _ = d.Gateways()[0].Close() }},
		faultinject.Step{AtOp: uint64(2 * killAt), Name: "kill gateway 1", Action: func() { _ = d.Gateways()[1].Close() }},
	)
	lat := &metrics.Histogram{}
	var worst time.Duration
	for i := 1; i <= total; i++ {
		plan.Tick()
		start := time.Now()
		r, err := c.Call("append", experiments.OctetSeqArg([]byte("x")))
		if err != nil {
			return Result{}, fmt.Errorf("call %d lost: %w", i, err)
		}
		elapsed := time.Since(start)
		lat.Record(elapsed)
		if elapsed > worst {
			worst = elapsed
		}
		if got := r.ReadLongLong(); got != int64(i) {
			return Result{}, fmt.Errorf("call %d returned %d: lost or duplicated", i, got)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for apps[0].Ops() < int64(total) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := c.Stats()
	fired := plan.Fired()
	return Result{
		ID:      "E8",
		Title:   "Redundant gateways with the enhanced client layer",
		Source:  "Section 3.5",
		Headers: []string{"quantity", "value"},
		Rows: [][]string{
			{"requests attempted", fmt.Sprint(total)},
			{"requests completed", fmt.Sprint(total)},
			{"gateways killed mid-run", fmt.Sprintf("%d of 3 (%v)", len(fired), fired)},
			{"profile failovers performed", fmt.Sprint(st.Failovers)},
			{"invocations reissued", fmt.Sprint(st.Reissues)},
			{"operations executed by the servers", fmt.Sprint(apps[0].Ops())},
			{"operations lost", "0"},
			{"operations duplicated", fmt.Sprint(apps[0].Ops() - int64(total))},
			{"fault-free median latency", lat.Percentile(50).Round(time.Microsecond).String()},
			{"worst-case (failover) latency", worst.Round(time.Microsecond).String()},
		},
		Notes: []string{
			"expected shape: zero lost, zero duplicated — the unique client identifier plus reused request identifiers let the gateways and servers recognize every reissue",
		},
	}, nil
}

// runE9ReplicationStyles compares the replication styles of section 2:
// fault-free invocation latency against recovery behaviour when the
// primary (or one active replica) crashes.
func runE9ReplicationStyles(cfg Config) (Result, error) {
	warm := cfg.ops(60, 16)
	var rows [][]string
	for _, style := range []replication.Style{replication.Active, replication.WarmPassive, replication.ColdPassive} {
		d, err := newDomain("ny", 3)
		if err != nil {
			return Result{}, err
		}
		if _, err := deployRegisters(d, expServerGroup, expServerKey, style, 2); err != nil {
			d.Close()
			return Result{}, err
		}
		rm := d.Node(2).RM
		if err := rm.JoinGroup(1, nil); err != nil {
			d.Close()
			return Result{}, err
		}
		if err := rm.WaitSynced(1, 5*time.Second); err != nil {
			d.Close()
			return Result{}, err
		}
		invoke := func(reqID uint32, op string) error {
			_, err := rm.Invoke(1, 5, expServerGroup,
				replication.OperationID{ChildSeq: reqID},
				giop.Request{RequestID: reqID, ResponseExpected: true, ObjectKey: []byte(expServerKey), Operation: op, Args: experiments.OctetSeqArg([]byte("x"))},
				10*time.Second)
			return err
		}

		lat := &metrics.Histogram{}
		for i := 1; i <= warm; i++ {
			start := time.Now()
			if err := invoke(uint32(i), "append"); err != nil {
				d.Close()
				return Result{}, err
			}
			lat.Record(time.Since(start))
		}

		// Crash the first-placed replica (the primary of passive
		// groups) and measure until the next invocation succeeds.
		members := rm.Members(expServerGroup)
		for i := 0; i < d.Nodes(); i++ {
			if d.Node(i).ID == members[0] {
				d.CrashNode(i)
				break
			}
		}
		crashStart := time.Now()
		var recovery time.Duration
		for i := warm + 1; ; i++ {
			err := invoke(uint32(i), "append")
			if err == nil {
				recovery = time.Since(crashStart)
				break
			}
			if time.Since(crashStart) > 15*time.Second {
				d.Close()
				return Result{}, fmt.Errorf("%v: no recovery after crash: %w", style, err)
			}
		}
		stats := combinedStats(d)
		rows = append(rows, []string{
			style.String(),
			lat.Mean().Round(time.Microsecond).String(),
			lat.Percentile(99).Round(time.Microsecond).String(),
			recovery.Round(time.Millisecond).String(),
			fmt.Sprint(stats.Failovers),
			fmt.Sprint(stats.ReplayedInvocations),
			fmt.Sprint(stats.StateSyncs),
			fmt.Sprint(stats.Checkpoints),
		})
		d.Close()
	}
	return Result{
		ID:      "E9",
		Title:   "Replication styles: fault-free cost vs recovery",
		Source:  "Section 2",
		Headers: []string{"style", "mean latency", "p99", "recovery after crash", "failovers", "replayed", "state syncs", "checkpoints"},
		Rows:    rows,
		Notes: []string{
			"expected shape: recovery time is dominated by failure detection (the totem fail timeout plus membership exchange) for every style; the styles differ in what recovery does — active needs no failover at all, warm passive replays only the operations since the last sync, cold passive restores the checkpoint and replays everything after it",
		},
	}, nil
}

// runE12StateTransfer measures state transfer to new replicas (section
// 2.2): time from join to synced for growing state sizes, for an active
// joiner and for cold-passive recovery.
func runE12StateTransfer(cfg Config) (Result, error) {
	sizes := []int{1 << 10, 64 << 10, 512 << 10}
	if cfg.Quick {
		sizes = []int{1 << 10, 64 << 10}
	}
	var rows [][]string
	for _, size := range sizes {
		d, err := newDomain("ny", 3)
		if err != nil {
			return Result{}, err
		}
		if _, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 1); err != nil {
			d.Close()
			return Result{}, err
		}
		rm := d.Node(2).RM
		if err := rm.JoinGroup(1, nil); err != nil {
			d.Close()
			return Result{}, err
		}
		if err := rm.WaitSynced(1, 5*time.Second); err != nil {
			d.Close()
			return Result{}, err
		}
		// Load the state.
		_, err = rm.Invoke(1, 5, expServerGroup,
			replication.OperationID{ChildSeq: 1},
			giop.Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte(expServerKey), Operation: "set", Args: experiments.OctetSeqArg(make([]byte, size))},
			10*time.Second)
		if err != nil {
			d.Close()
			return Result{}, err
		}

		// New replica joins; measure join -> synced.
		joiner := &experiments.RegisterApp{}
		start := time.Now()
		if err := d.Node(1).RM.JoinGroup(expServerGroup, joiner); err != nil {
			d.Close()
			return Result{}, err
		}
		if err := d.Node(1).RM.WaitSynced(expServerGroup, 10*time.Second); err != nil {
			d.Close()
			return Result{}, err
		}
		elapsed := time.Since(start)
		ok := len(joiner.Value()) == size
		rows = append(rows, []string{
			fmt.Sprintf("%d KiB", size>>10),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(ok),
		})
		d.Close()
	}
	return Result{
		ID:      "E12",
		Title:   "State transfer to new replicas",
		Source:  "Section 2.2",
		Headers: []string{"state size", "join -> synced", "state intact"},
		Rows:    rows,
		Notes: []string{
			"expected shape: transfer time grows with state size; the transferred state reflects every operation ordered before the join, and the joiner replays anything ordered after it",
		},
	}, nil
}

// combinedStats sums the replication stats across a domain's nodes.
func combinedStats(d *domain.Domain) replication.Stats {
	var out replication.Stats
	for i := 0; i < d.Nodes(); i++ {
		s := d.Node(i).RM.Stats()
		out.Failovers += s.Failovers
		out.ReplayedInvocations += s.ReplayedInvocations
		out.StateSyncs += s.StateSyncs
		out.Checkpoints += s.Checkpoints
	}
	return out
}
