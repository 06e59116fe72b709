package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/giop"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/totem"
)

// Errors reported by the mechanisms.
var (
	ErrNoQuorum      = errors.New("replication: node is in a minority partition")
	ErrStopped       = errors.New("replication: mechanisms stopped")
	ErrNoSuchGroup   = errors.New("replication: no such group")
	ErrGroupExists   = errors.New("replication: group already exists")
	ErrNotMember     = errors.New("replication: node is not a member")
	ErrAlreadyMember = errors.New("replication: node already a member")
	ErrTimeout       = errors.New("replication: timed out")
	ErrNoAgreement   = errors.New("replication: voting replicas disagree")
)

// groupState is the directory entry for one object group. It is mutated
// only by the event loop, under mu for the benefit of concurrent readers.
type groupState struct {
	id        GroupID
	style     Style
	objectKey string
	// members lists hosting nodes in join order; members[0] is the
	// primary of passive groups and the state-transfer donor.
	members []memnet.NodeID
	// local is this node's replica runtime, if the node is a member.
	local *replica
	// pendingJoins tracks joiners awaiting state transfer: node -> the
	// totem timestamp of their join.
	pendingJoins map[memnet.NodeID]uint64
	// view numbers this group's membership views; viewSeq is the
	// total-order position the current view was installed at. Both are
	// bumped by the event loop at every membership change, so all members
	// agree on (view, members) at every point in the message stream.
	view    uint64
	viewSeq uint64
}

func (g *groupState) isMember(id memnet.NodeID) bool {
	for _, m := range g.members {
		if m == id {
			return true
		}
	}
	return false
}

func (g *groupState) removeMember(id memnet.NodeID) {
	kept := g.members[:0]
	for _, m := range g.members {
		if m != id {
			kept = append(kept, m)
		}
	}
	g.members = kept
}

// pendingCall is one invocation awaiting its response(s). The fields
// below ch are mutated only by the event loop, under the call's pending
// shard lock.
type pendingCall struct {
	ch chan pendingResult
	// votesNeeded is zero for first-response delivery; otherwise the
	// number of identical results required (active-with-voting).
	votesNeeded int
	votes       map[string]int
	responded   map[memnet.NodeID]bool
	expected    int // group size at invocation time (voting)
}

// pendingResult is what the event loop hands a pending waiter: either
// the raw encapsulated IIOP reply (the common first-response path, where
// the waiter decodes it off the event loop) or an already-decoded reply
// (the voting path, which must decode on the loop to compare result
// bytes across replicas). raw aliases the delivery buffer; the waiter
// decodes it immediately and DecodeReply copies the result bytes out.
type pendingResult struct {
	rep giop.Reply
	raw []byte
}

// Mechanisms is the per-node replication engine. Create with New, stop
// with Stop.
type Mechanisms struct {
	cfg    Config
	node   *totem.Node
	id     memnet.NodeID // node.ID()
	log    *logrec.Log
	tracer *obs.Tracer // nil when tracing is disabled

	stop chan struct{}
	done chan struct{}

	// mu guards the group directory. Only the event loop takes the write
	// lock (directory mutations are delivered in total order); the
	// invocation datapath takes read locks, so concurrent Invokes and
	// response deliveries do not serialize behind membership changes.
	mu     sync.RWMutex
	groups map[GroupID]*groupState
	byKey  map[string]GroupID
	// prearmed holds applications registered by JoinGroup, installed
	// when the join announcement is delivered in total order.
	prearmed  map[GroupID]Application
	observers map[GroupID]Observer
	changed   chan struct{} // closed and replaced on directory change

	// ring is the current totem ring's membership and ringID its
	// identifier, tracked so a configuration change can tell a merge (new
	// nodes appeared) from a departure, and which side of a healed
	// partition this node was on. syncApplied is the highest ring whose
	// membership sync has been adopted. All three are loop-owned, under
	// mu.
	ring        []memnet.NodeID
	ringID      uint64
	syncApplied uint64

	// pending is the sharded pending-call table plus the early-discard
	// done-set, outside mu entirely: response delivery and Invoke
	// registration meet only on a shard lock.
	pending *pendingTable

	stopOnce sync.Once
	// wg tracks goroutines the event loop hands blocking work to (the
	// membership-sync multicast); Stop waits for them so no multicast
	// fires after the caller assumes quiescence.
	wg sync.WaitGroup

	invocationsSent      atomic.Uint64
	invocationsExecuted  atomic.Uint64
	duplicateInvocations atomic.Uint64
	dedupMisses          atomic.Uint64
	responsesSent        atomic.Uint64
	responsesDelivered   atomic.Uint64
	duplicateResponses   atomic.Uint64
	// responsesDiscardedEarly counts the subset of duplicate responses
	// dropped from the header peek alone, without payload decode.
	responsesDiscardedEarly atomic.Uint64
	stateTransfers          atomic.Uint64
	stateSyncs              atomic.Uint64
	checkpoints             atomic.Uint64
	failovers               atomic.Uint64
	replayedInvocations     atomic.Uint64
	viewChanges             atomic.Uint64
	transfersCheckpointed   atomic.Uint64
	transfersFullState      atomic.Uint64
	transferEntriesReplayed atomic.Uint64
	catchupCheckpoints      atomic.Uint64
	membershipSyncs         atomic.Uint64
}

// New creates the replication mechanisms over a running totem node and
// starts consuming its event stream.
func New(cfg Config) (*Mechanisms, error) {
	if cfg.Node == nil {
		return nil, errors.New("replication: config needs a totem node")
	}
	cfg.applyDefaults()
	m := &Mechanisms{
		cfg:       cfg,
		node:      cfg.Node,
		id:        cfg.Node.ID(),
		tracer:    cfg.Tracer,
		log:       logrec.NewLog(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		groups:    make(map[GroupID]*groupState),
		byKey:     make(map[string]GroupID),
		prearmed:  make(map[GroupID]Application),
		observers: make(map[GroupID]Observer),
		pending:   newPendingTable(cfg.DedupCapacity),
		changed:   make(chan struct{}),
	}
	m.registerMetrics(cfg.Metrics)
	go m.run()
	return m, nil
}

// registerMetrics publishes the mechanisms' counters on the registry,
// labelled with this node's identity. The datapath keeps its bare
// atomic increments; the registry reads only at scrape time.
func (m *Mechanisms) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"node": string(m.id)}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_replication_invocations_sent_total", "Invocations multicast by this node.", m.invocationsSent.Load},
		{"eternalgw_replication_invocations_executed_total", "Invocations executed by local replicas.", m.invocationsExecuted.Load},
		{"eternalgw_replication_duplicate_invocations_total", "Duplicate invocations detected and suppressed (dedup hits).", m.duplicateInvocations.Load},
		{"eternalgw_replication_dedup_misses_total", "Executed invocations that were not duplicates (dedup misses).", m.dedupMisses.Load},
		{"eternalgw_replication_responses_sent_total", "Responses multicast by local replicas.", m.responsesSent.Load},
		{"eternalgw_replication_responses_delivered_total", "Responses delivered to local pending invocations.", m.responsesDelivered.Load},
		{"eternalgw_replication_duplicate_responses_total", "Duplicate responses detected and suppressed.", m.duplicateResponses.Load},
		{"eternalgw_replication_responses_discarded_early_total", "Duplicate responses discarded from the header peek, without payload decode.", m.responsesDiscardedEarly.Load},
		{"eternalgw_replication_state_transfers_total", "State transfers donated.", m.stateTransfers.Load},
		{"eternalgw_replication_state_syncs_total", "Warm-passive state synchronizations published.", m.stateSyncs.Load},
		{"eternalgw_replication_checkpoints_total", "Cold-passive checkpoints written.", m.checkpoints.Load},
		{"eternalgw_replication_failovers_total", "Passive-group failovers performed.", m.failovers.Load},
		{"eternalgw_replication_replayed_invocations_total", "Invocations re-executed during failover.", m.replayedInvocations.Load},
		{"eternalgw_replication_view_changes_total", "Group membership views installed (joins, leaves, evictions, failures).", m.viewChanges.Load},
		{"eternalgw_replication_transfers_checkpointed_total", "State donations served as checkpoint plus log replay.", m.transfersCheckpointed.Load},
		{"eternalgw_replication_transfers_full_state_total", "State donations that fell back to a full state capture.", m.transfersFullState.Load},
		{"eternalgw_replication_transfer_entries_replayed_total", "Logged invocations replayed by joining replicas catching up from a checkpoint.", m.transferEntriesReplayed.Load},
		{"eternalgw_replication_catchup_checkpoints_total", "Local checkpoints written into the catch-up log by executing replicas.", m.catchupCheckpoints.Load},
		{"eternalgw_replication_membership_syncs_total", "Authoritative directory snapshots adopted after a ring merge (partition healing).", m.membershipSyncs.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_replication_dedup_cache_entries", "Executed-operation records held for duplicate detection, all local replicas.", lbl, func() float64 {
		total := 0
		for _, n := range m.DedupOccupancy() {
			total += n
		}
		return float64(total)
	})
	reg.GaugeFunc("eternalgw_replication_pending_calls", "Invocations registered and awaiting responses on this node.", lbl, func() float64 {
		return float64(m.PendingCalls())
	})
	reg.GaugeFunc("eternalgw_replication_backpressure", "Domain-side load signal in [0,1]: max of totem send backlog and pending-call occupancy against their windows.", lbl, m.Backpressure)
}

// backpressureWindow is the pending-call occupancy at which the
// Backpressure signal saturates to 1.0: how many invocations a node can
// comfortably have in flight toward the domain before a gateway should
// start shedding at its edge.
const backpressureWindow = 1024

// PendingCalls reports how many invocations this node has registered and
// not yet resolved (responses outstanding toward the domain).
func (m *Mechanisms) PendingCalls() int {
	return m.pending.occupancy()
}

// Backpressure is the domain-side load signal in [0, 1] that admission
// breakers sample: the worse of (a) the totem send backlog against the
// submission queue's capacity — ordered multicasts waiting for a token
// visit — and (b) the pending-call occupancy against backpressureWindow
// — invocations conveyed but unanswered. Either one saturating means the
// domain is falling behind this node's offered load, which an edge
// gateway should stop accepting.
func (m *Mechanisms) Backpressure() float64 {
	var sig float64
	if queued, capacity := m.node.Backlog(); capacity > 0 {
		sig = float64(queued) / float64(capacity)
	}
	if p := float64(m.PendingCalls()) / backpressureWindow; p > sig {
		sig = p
	}
	if sig > 1 {
		sig = 1
	}
	return sig
}

// DedupOccupancy reports, per group with a local servant replica, how
// many executed-operation records the replica's duplicate-detection
// cache currently holds (the /statusz dedup section and capacity-tuning
// diagnostics read this).
func (m *Mechanisms) DedupOccupancy() map[GroupID]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[GroupID]int)
	for id, g := range m.groups {
		if g.local != nil && g.local.app != nil {
			out[id] = int(g.local.dedupLen.Load())
		}
	}
	return out
}

// NodeID returns the identity of the node these mechanisms run on.
func (m *Mechanisms) NodeID() memnet.NodeID { return m.id }

// Log exposes the node's logging-recovery store (used by experiments and
// the resource manager to inspect recovery behaviour).
func (m *Mechanisms) Log() *logrec.Log { return m.log }

// Stop shuts down the event loop and all replica executors, then waits
// for any in-flight handoff goroutines (totem.Multicast unblocks them
// once the node stops, so the wait terminates on every shutdown path).
func (m *Mechanisms) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.wg.Wait()
}

// Stats snapshots the counters.
func (m *Mechanisms) Stats() Stats {
	return Stats{
		InvocationsSent:         m.invocationsSent.Load(),
		InvocationsExecuted:     m.invocationsExecuted.Load(),
		DuplicateInvocations:    m.duplicateInvocations.Load(),
		DedupMisses:             m.dedupMisses.Load(),
		ResponsesSent:           m.responsesSent.Load(),
		ResponsesDelivered:      m.responsesDelivered.Load(),
		DuplicateResponses:      m.duplicateResponses.Load(),
		ResponsesDiscardedEarly: m.responsesDiscardedEarly.Load(),
		StateTransfers:          m.stateTransfers.Load(),
		StateSyncs:              m.stateSyncs.Load(),
		Checkpoints:             m.checkpoints.Load(),
		Failovers:               m.failovers.Load(),
		ReplayedInvocations:     m.replayedInvocations.Load(),
		ViewChanges:             m.viewChanges.Load(),
		TransfersCheckpointed:   m.transfersCheckpointed.Load(),
		TransfersFullState:      m.transfersFullState.Load(),
		TransferEntriesReplayed: m.transferEntriesReplayed.Load(),
		CatchupCheckpoints:      m.catchupCheckpoints.Load(),
		MembershipSyncs:         m.membershipSyncs.Load(),
	}
}

// --- group administration -------------------------------------------------

// CreateGroup announces a new object group. The announcement is ordered
// by totem; use WaitForGroup to synchronize. Creating an existing group
// id is a delivered no-op, so concurrent creators agree on the first.
func (m *Mechanisms) CreateGroup(id GroupID, style Style, objectKey []byte) error {
	return m.multicast(Message{
		Header:  Header{Kind: KindCreateGroup, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeCreateGroup(createGroupPayload{Style: style, ObjectKey: objectKey}),
	})
}

// JoinGroup adds a replica of the group on this node, hosting app. A nil
// app joins as a client-only member (how gateways join the gateway
// group): it can invoke through the group and receive responses but
// hosts no servant. Use WaitSynced to block until the replica has
// received its state transfer and is live.
func (m *Mechanisms) JoinGroup(id GroupID, app Application) error {
	m.mu.Lock()
	g, ok := m.groups[id]
	if _, armed := m.prearmed[id]; (ok && g.local != nil) || armed {
		m.mu.Unlock()
		return fmt.Errorf("group %d on %s: %w", id, m.id, ErrAlreadyMember)
	}
	// Register the intent; the replica activates when the join is
	// delivered in total order.
	m.prearmed[id] = app
	m.mu.Unlock()
	return m.multicast(Message{
		Header:  Header{Kind: KindJoinGroup, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeMember(memberPayload{Node: m.id}),
	})
}

// DeleteGroup retires the group across the whole domain: every node
// stops its local replica (if any) and removes the directory entry. The
// deletion is ordered by totem like every other membership change.
func (m *Mechanisms) DeleteGroup(id GroupID) error {
	return m.multicast(Message{
		Header: Header{Kind: KindDeleteGroup, ClientID: UnusedClientID, DstGroup: id},
	})
}

// LeaveGroup removes this node's replica from the group.
func (m *Mechanisms) LeaveGroup(id GroupID) error {
	return m.multicast(Message{
		Header:  Header{Kind: KindLeaveGroup, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeMember(memberPayload{Node: m.id}),
	})
}

// GroupByKey resolves a CORBA object key to its object group. This is
// the lookup the gateway performs on the object key embedded in each
// incoming IIOP request (paper section 3.1).
func (m *Mechanisms) GroupByKey(objectKey []byte) (GroupID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.byKey[string(objectKey)]
	return id, ok
}

// GroupStyle returns the replication style of a group.
func (m *Mechanisms) GroupStyle(id GroupID) (Style, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return 0, false
	}
	return g.style, true
}

// Members returns a group's hosting nodes in join order (index 0 is the
// primary of passive groups).
func (m *Mechanisms) Members(id GroupID) []memnet.NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return nil
	}
	out := make([]memnet.NodeID, len(g.members))
	copy(out, g.members)
	return out
}

// View returns the group's current membership view.
func (m *Mechanisms) View(id GroupID) (View, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return View{}, false
	}
	v := View{Number: g.view, Seq: g.viewSeq, Members: make([]memnet.NodeID, len(g.members))}
	copy(v.Members, g.members)
	return v, true
}

// Groups lists the identifiers of every object group in the directory.
func (m *Mechanisms) Groups() []GroupID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]GroupID, 0, len(m.groups))
	for id := range m.groups {
		out = append(out, id)
	}
	return out
}

// EvictMembers removes nodes from a group through one totally-ordered
// view change, without the evicted nodes' cooperation: the resource
// manager's shrink and replace operations use it to retire replicas
// (the cooperative exit is LeaveGroup). Evicting a non-member is a
// delivered no-op.
func (m *Mechanisms) EvictMembers(id GroupID, nodes ...memnet.NodeID) error {
	if len(nodes) == 0 {
		return nil
	}
	return m.multicast(Message{
		Header:  Header{Kind: KindViewChange, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeViewChange(viewChangePayload{Remove: nodes}),
	})
}

// WaitForView blocks until the group's view number reaches at least n.
func (m *Mechanisms) WaitForView(id GroupID, n uint64, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && g.view >= n
	})
}

// waitCondition blocks until cond (evaluated under mu) holds.
func (m *Mechanisms) waitCondition(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.RLock()
		ok := cond()
		ch := m.changed
		m.mu.RUnlock()
		if ok {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrTimeout
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
		case <-timer.C:
		case <-m.stop:
			timer.Stop()
			return ErrStopped
		}
		timer.Stop()
	}
}

// WaitForGroup blocks until the group exists.
func (m *Mechanisms) WaitForGroup(id GroupID, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		_, ok := m.groups[id]
		return ok
	})
}

// WaitForMembers blocks until the group has at least n members.
func (m *Mechanisms) WaitForMembers(id GroupID, n int, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && len(g.members) >= n
	})
}

// WaitSynced blocks until this node's replica of the group is live
// (joined, state transferred).
func (m *Mechanisms) WaitSynced(id GroupID, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && g.local != nil && g.local.synced.Load()
	})
}

// notifyChanged wakes all condition waiters. Callers hold mu.
func (m *Mechanisms) notifyChanged() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// --- invocation -----------------------------------------------------------

// Invoke multicasts an invocation of the dst group and waits for the
// response, suppressing duplicate responses by response identifier. src
// must be a group this node is a member of (responses are addressed to
// it). clientID carries the TCP client identifier when a gateway invokes
// on behalf of an external client, and UnusedClientID otherwise. op must
// be determined identically by every replica of the issuing group.
func (m *Mechanisms) Invoke(src GroupID, clientID uint64, dst GroupID, op OperationID, req giop.Request, timeout time.Duration) (giop.Reply, error) {
	if timeout == 0 {
		timeout = DefaultInvokeTimeout
	}
	if !m.HasQuorum() {
		return giop.Reply{}, fmt.Errorf("invoke group %d: %w", dst, ErrNoQuorum)
	}
	key := opKey{src: dst, clientID: clientID, op: op}

	m.mu.RLock()
	g, ok := m.groups[dst]
	if !ok {
		m.mu.RUnlock()
		return giop.Reply{}, fmt.Errorf("group %d: %w", dst, ErrNoSuchGroup)
	}
	style, groupSize := g.style, len(g.members)
	m.mu.RUnlock()
	call := &pendingCall{ch: make(chan pendingResult, 1)}
	if style == ActiveWithVoting {
		call.expected = groupSize
		call.votesNeeded = groupSize/2 + 1
		call.votes = make(map[string]int)
		call.responded = make(map[memnet.NodeID]bool)
	}
	m.pending.register(key, call)
	defer m.pending.unregister(key, call)

	// Encode the conveyed IIOP request in the byte order its arguments
	// were marshalled in (the external client's order, when a gateway
	// forwards), so replicas decode the arguments correctly and answer
	// in the same order.
	reqMsg, err := giop.EncodeRequest(req.ArgsOrder, req)
	if err != nil {
		return giop.Reply{}, err
	}
	err = m.multicast(Message{
		Header: Header{
			Kind:     KindInvocation,
			ClientID: clientID,
			SrcGroup: src,
			DstGroup: dst,
			Op:       op,
		},
		Payload: giop.Marshal(reqMsg),
	})
	if err != nil {
		return giop.Reply{}, err
	}
	m.invocationsSent.Add(1)
	m.tracer.Event(obs.TraceKey{ClientID: clientID, ParentTS: op.ParentTS, ChildSeq: op.ChildSeq},
		obs.StageMulticastSend, string(m.id))

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-call.ch:
		if res.raw == nil {
			return res.rep, nil
		}
		// The common path: the event loop handed over the raw
		// encapsulated reply and this waiter — off the event loop —
		// decodes it. DecodeReply copies the result bytes out of the
		// delivery buffer.
		wire, derr := giop.Unmarshal(res.raw)
		if derr != nil {
			return giop.Reply{}, fmt.Errorf("replication: decode response: %w", derr)
		}
		rep, derr := giop.DecodeReply(wire)
		if derr != nil {
			return giop.Reply{}, fmt.Errorf("replication: decode response: %w", derr)
		}
		return rep, nil
	case <-timer.C:
		return giop.Reply{}, fmt.Errorf("%w: op %v on group %d", ErrTimeout, op, dst)
	case <-m.stop:
		return giop.Reply{}, ErrStopped
	}
}

// HasQuorum reports whether this node may serve: always true unless
// QuorumOf is configured, in which case the node's ring must hold a
// majority of the domain's processors.
func (m *Mechanisms) HasQuorum() bool {
	if m.cfg.QuorumOf <= 0 {
		return true
	}
	return len(m.node.Members()) >= m.cfg.QuorumOf/2+1
}

// multicast submits an encoded message to totem.
func (m *Mechanisms) multicast(msg Message) error {
	if err := m.node.Multicast(Encode(msg)); err != nil {
		return fmt.Errorf("replication: multicast: %w", err)
	}
	return nil
}

// MulticastMessage multicasts an arbitrary infrastructure message into
// the domain. Gateways use it to record incoming client requests with
// the whole gateway group before forwarding them (paper section 3.5).
func (m *Mechanisms) MulticastMessage(msg Message) error {
	return m.multicast(msg)
}

// Observer receives infrastructure messages addressed to an observed
// group, in total order, together with their delivery timestamps.
// Observers run on the event loop and must not block.
type Observer func(msg Message, ts uint64)

// SetObserver registers fn to observe every invocation and response
// delivered to the group while this node is a member. This is how every
// member of a redundant gateway group keeps a record of the requests and
// responses flowing through any one of them (paper section 3.5).
func (m *Mechanisms) SetObserver(group GroupID, fn Observer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observers[group] = fn
}

// observerLocked returns the observer a delivered message to the group
// should be dispatched to, or nil if the node is not a member or none is
// registered. Callers hold mu (read or write) for the map lookup, but
// must invoke the returned function only after releasing it: observers
// are foreign code (the gateway record takes its shard locks and copies
// reply bytes), so calling them under the directory lock stretches the
// event loop's critical section and hides lock-order edges from static
// analysis (gwlint lockorder). Delivery order is preserved because every
// dispatch site runs on the single event-loop goroutine. The message
// payload may alias the delivery buffer; observers copy what they
// retain.
func (m *Mechanisms) observerLocked(g *groupState) Observer {
	if g.local == nil {
		return nil
	}
	return m.observers[g.id]
}
