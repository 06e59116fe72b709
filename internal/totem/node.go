package totem

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
)

// EventType distinguishes the events a node emits.
type EventType uint8

// Event types. Deliveries and configuration changes arrive on one channel
// so the application observes membership changes ordered with respect to
// message deliveries (virtual synchrony).
const (
	EventDeliver EventType = iota + 1
	EventConfig
)

// Event is one ordered event: a message delivery or a ring installation.
type Event struct {
	Type     EventType
	Delivery Delivery     // valid when Type == EventDeliver
	Config   ConfigChange // valid when Type == EventConfig
}

// ErrStopped is returned by Multicast after Stop.
var ErrStopped = errors.New("totem: node stopped")

const eventBufSize = 4096

// skipAge is how many unsatisfied full token rotations a retransmission
// request survives before the leader declares the message unrecoverable
// and skips it.
const skipAge = 4

// Node is one member of a Totem ring. Create with Start, stop with Stop.
// All protocol state is owned by a single goroutine; the public methods
// communicate with it through channels.
type Node struct {
	cfg Config
	ep  Transport
	id  memnet.NodeID // ep.ID(), the node's identity

	events chan Event
	sendq  chan []byte
	stop   chan struct{}
	done   chan struct{}

	mu         sync.Mutex
	curMembers []memnet.NodeID
	curRingID  uint64

	broadcastN     atomic.Uint64
	deliveredN     atomic.Uint64
	retransmittedN atomic.Uint64
	skippedN       atomic.Uint64
	tokenPassN     atomic.Uint64
	reconfigN      atomic.Uint64
	packedMsgN     atomic.Uint64
	packedPartN    atomic.Uint64
	forwardedN     atomic.Uint64
	leaderBatchN   atomic.Uint64
	promotionN     atomic.Uint64
	demotionN      atomic.Uint64
	// pendingN mirrors len(pending) (owned by the run goroutine) so
	// Backlog can report send-queue depth without touching protocol state.
	pendingN atomic.Int64

	// protocol state, owned by the run goroutine
	ring         []memnet.NodeID
	ringID       uint64
	gathering    bool
	buffer       map[uint64]regularMsg
	skipped      map[uint64]bool
	deliveredSeq uint64 // contiguous received-and-delivered watermark (local aru)
	highest      uint64
	pending      [][]byte
	lastTokenID  uint64

	lastSentToken *token
	tokenResendAt time.Time

	heldToken  *token
	holdUntil  time.Time
	workInHold bool
	// lastTrafficAt is when this node last saw application traffic (a
	// new regular broadcast, local or remote). Within eight idle holds of
	// it the token's idle hold is cut to a quarter (see processToken).
	lastTrafficAt time.Time

	alive          map[memnet.NodeID]bool
	joinHighest    map[memnet.NodeID]uint64
	joinAru        map[memnet.NodeID]uint64
	proposedRingID uint64
	gatherDeadline time.Time

	failDeadline time.Time

	// Leader-ordered fast-path state (Config.Ordering == OrderingLeader),
	// owned by the run goroutine like the rest of the protocol state.
	fpActive   bool          // a sequencer is installed for the current ring
	leaderID   memnet.NodeID // the installed sequencer
	promoteSeq uint64        // ring-ordered sequence the mode switch was installed at

	// sequencer-side state
	leaderSeq    uint64                                  // last sequence number assigned
	leaderStable uint64                                  // stability horizon (min aru over the ring)
	memberAru    map[memnet.NodeID]uint64                // latest acked aru per member
	memberAckAt  map[memnet.NodeID]time.Time             // when each member last acked (liveness)
	fwdSeen      map[memnet.NodeID]uint64                // contiguous forward watermark per origin
	fwdStash     map[memnet.NodeID]map[uint64]forwardMsg // out-of-order forwards awaiting their gap
	fwdLast      map[memnet.NodeID]uint64                // seq of each origin's most recent batch
	batchOrigin  map[uint64]batchRef                     // seq -> forward identity, for nak retransmission
	heartbeatAt  time.Time

	// follower-side state
	fwdNext       uint64        // next forward number to issue this epoch
	awaiting      []awaitingFwd // forwards sent but not yet seen ordered
	awaitingParts int           // payloads inside awaiting (backlog accounting)
	fwdResendAt   time.Time
	ackDueAt      time.Time

	// mirrors for Fastpath() and the stability-lag gauge
	curLeader    memnet.NodeID // under mu
	curLeaderSeq uint64        // under mu
	fpSeqA       atomic.Uint64
	fpStableA    atomic.Uint64
}

// batchRef identifies the forward a sequence number ordered.
type batchRef struct {
	origin memnet.NodeID
	fwd    uint64
}

// awaitingFwd is a forward this follower sent to the sequencer and has
// not yet seen come back ordered.
type awaitingFwd struct {
	fwd     uint64
	parts   [][]byte
	resends int
}

// Start creates a node and launches its protocol goroutine. The founding
// members immediately run a membership exchange to install the first
// ring, so callers should wait for the initial EventConfig before
// multicasting if they need the full ring assembled.
func Start(cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Endpoint == nil {
		return nil, errors.New("totem: config needs an endpoint")
	}
	n := &Node{
		cfg:     cfg,
		ep:      cfg.Endpoint,
		id:      cfg.Endpoint.ID(),
		events:  make(chan Event, eventBufSize),
		sendq:   make(chan []byte, 1024),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		buffer:  make(map[uint64]regularMsg),
		skipped: make(map[uint64]bool),
	}
	n.registerMetrics(cfg.Metrics)
	go n.run()
	return n, nil
}

// registerMetrics publishes the protocol counters on the registry.
func (n *Node) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"node": string(n.id)}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_totem_broadcast_total", "Regular messages this node originated.", n.broadcastN.Load},
		{"eternalgw_totem_delivered_total", "Regular messages delivered to the application in total order.", n.deliveredN.Load},
		{"eternalgw_totem_retransmitted_total", "Retransmissions this node served.", n.retransmittedN.Load},
		{"eternalgw_totem_skipped_total", "Sequence numbers declared unrecoverable and skipped.", n.skippedN.Load},
		{"eternalgw_totem_token_passes_total", "Tokens this node forwarded.", n.tokenPassN.Load},
		{"eternalgw_totem_reconfigs_total", "Ring installations this node participated in.", n.reconfigN.Load},
		{"eternalgw_totem_packed_msgs_total", "Packed datagrams this node originated.", n.packedMsgN.Load},
		{"eternalgw_totem_packed_parts_total", "Payloads carried inside packed datagrams.", n.packedPartN.Load},
		{"eternalgw_totem_fastpath_forwarded_total", "Payloads forwarded to a sequencer in leader mode.", n.forwardedN.Load},
		{"eternalgw_totem_fastpath_batches_total", "Ordered batches this node multicast as sequencer.", n.leaderBatchN.Load},
		{"eternalgw_totem_fastpath_promotions_total", "Leader epochs installed on this node.", n.promotionN.Load},
		{"eternalgw_totem_fastpath_demotions_total", "Falls from leader mode back to ring rotation.", n.demotionN.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_totem_fastpath_stability_lag", "Sequence numbers the sequencer has assigned beyond its stability horizon.", lbl, n.stabilityLag)
}

// ID returns the node's identity.
func (n *Node) ID() memnet.NodeID { return n.id }

// Events returns the ordered event stream. The consumer must keep
// draining it; a full event buffer blocks the protocol goroutine, which
// stalls the ring (and will eventually look like a failure to peers).
func (n *Node) Events() <-chan Event { return n.events }

// Multicast submits a payload for totally-ordered delivery to every ring
// member (including this node). The payload must not be mutated after
// the call.
func (n *Node) Multicast(payload []byte) error {
	select {
	case <-n.stop:
		return ErrStopped
	default:
	}
	select {
	case n.sendq <- payload:
		return nil
	case <-n.stop:
		return ErrStopped
	}
}

// Backlog reports the send-side backpressure signal: how many payloads
// are queued for ordered broadcast (submitted but not yet consumed by a
// token visit) against the submission queue's capacity. A backlog near
// the capacity means Multicast callers are about to block — the domain
// is not keeping up with offered load.
func (n *Node) Backlog() (queued, capacity int) {
	return len(n.sendq) + int(n.pendingN.Load()), cap(n.sendq)
}

// Members returns the most recently installed ring.
func (n *Node) Members() []memnet.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]memnet.NodeID, len(n.curMembers))
	copy(out, n.curMembers)
	return out
}

// RingID returns the id of the most recently installed ring.
func (n *Node) RingID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.curRingID
}

// Stats returns a snapshot of protocol counters.
func (n *Node) Stats() Stats {
	return Stats{
		Broadcast:     n.broadcastN.Load(),
		Delivered:     n.deliveredN.Load(),
		Retransmitted: n.retransmittedN.Load(),
		Skipped:       n.skippedN.Load(),
		TokenPasses:   n.tokenPassN.Load(),
		Reconfigs:     n.reconfigN.Load(),
		PackedMsgs:    n.packedMsgN.Load(),
		PackedParts:   n.packedPartN.Load(),
		Forwarded:     n.forwardedN.Load(),
		LeaderBatches: n.leaderBatchN.Load(),
		Promotions:    n.promotionN.Load(),
		Demotions:     n.demotionN.Load(),
		StabilityLag:  n.stabilityLagN(),
	}
}

// stabilityLagN reports how far the sequencer has assigned sequence
// numbers beyond its stability horizon (zero off the fast path).
func (n *Node) stabilityLagN() uint64 {
	seq, stable := n.fpSeqA.Load(), n.fpStableA.Load()
	if seq > stable {
		return seq - stable
	}
	return 0
}

func (n *Node) stabilityLag() float64 { return float64(n.stabilityLagN()) }

// Fastpath reports the installed sequencer for the current ring, if the
// leader-ordered fast path is active: the leader's identity and the
// agreed ring-ordered sequence number the mode switch was installed at.
func (n *Node) Fastpath() (leader memnet.NodeID, startSeq uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.curLeader == "" {
		return "", 0, false
	}
	return n.curLeader, n.curLeaderSeq, true
}

// Stop terminates the protocol goroutine and waits for it to exit.
// Stop is idempotent.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}

// run is the protocol event loop; it exclusively owns all ring state.
func (n *Node) run() {
	defer close(n.done)

	// Bootstrap: gather with the configured founding members as the
	// initial candidate set, so all founders install the same first ring
	// without waiting out a failure timeout.
	n.startGather()
	for _, m := range n.cfg.Members {
		n.alive[m] = true
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.rearm(timer)
		select {
		case <-n.stop:
			return
		case pkt := <-n.ep.Recv():
			n.handlePacket(pkt)
		case payload := <-n.sendq:
			n.pending = append(n.pending, payload)
			n.pendingN.Store(int64(len(n.pending)))
			n.drainSendq()
			if n.fpActive {
				// Leader mode: no token to wait for. The sequencer orders
				// its own submissions directly; followers forward theirs
				// to it immediately. Token pacing (lastTrafficAt) is
				// deliberately not touched — it is a no-op on the fast
				// path, so a demotion right after this submission starts
				// ring rotation from a clean pacing state instead of
				// double-delaying the first post-switch rotation.
				if n.leaderID == n.id {
					n.leaderOrderPending()
				} else {
					n.forwardPending()
				}
				continue
			}
			n.lastTrafficAt = time.Now()
			if n.heldToken != nil {
				// The token is parked here idle; broadcast immediately
				// and pass it on.
				t := *n.heldToken
				n.heldToken = nil
				n.holdUntil = time.Time{}
				n.processToken(t)
			}
		case <-timer.C:
			n.handleTimeouts(time.Now())
		}
	}
}

// drainSendq moves every queued submission into pending without blocking.
func (n *Node) drainSendq() {
	for {
		select {
		case p := <-n.sendq:
			n.pending = append(n.pending, p)
			n.pendingN.Store(int64(len(n.pending)))
		default:
			return
		}
	}
}

// rearm points the shared timer at the earliest pending deadline.
func (n *Node) rearm(timer *time.Timer) {
	next := time.Time{}
	earliest := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	earliest(n.failDeadline)
	earliest(n.tokenResendAt)
	earliest(n.gatherDeadline)
	earliest(n.heartbeatAt)
	earliest(n.fwdResendAt)
	earliest(n.ackDueAt)
	if n.heldToken != nil {
		earliest(n.holdUntil)
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	if next.IsZero() {
		timer.Reset(time.Hour)
		return
	}
	d := time.Until(next)
	if d < 0 {
		d = 0
	}
	timer.Reset(d)
}

// tokenRetransmit is how long the previous holder (and a follower
// awaiting its forwards or owing an ack) waits for evidence of progress
// before resending: a tenth of FailTimeout, so several resends fit
// before a lost token looks like a failure.
func (n *Node) tokenRetransmit() time.Duration { return n.cfg.FailTimeout / 10 }

func (n *Node) handleTimeouts(now time.Time) {
	if n.heldToken != nil && !n.holdUntil.After(now) {
		n.finishHold()
	}
	if !n.tokenResendAt.IsZero() && !n.tokenResendAt.After(now) && n.lastSentToken != nil {
		// No evidence of progress since forwarding: resend the token.
		n.broadcastRaw(encodeToken(*n.lastSentToken))
		n.tokenResendAt = now.Add(n.tokenRetransmit())
	}
	if !n.gatherDeadline.IsZero() && !n.gatherDeadline.After(now) {
		n.installRing()
	}
	if !n.heartbeatAt.IsZero() && !n.heartbeatAt.After(now) {
		n.leaderHeartbeat(now)
	}
	if !n.fwdResendAt.IsZero() && !n.fwdResendAt.After(now) {
		n.resendForwards(now)
	}
	if !n.ackDueAt.IsZero() && !n.ackDueAt.After(now) {
		n.sendAck(now)
	}
	if !n.failDeadline.IsZero() && !n.failDeadline.After(now) && !n.gathering {
		n.startGather()
	}
}

func (n *Node) handlePacket(pkt memnet.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	r := cdr.NewReader(pkt.Payload, cdr.BigEndian)
	switch r.ReadOctet() {
	case kindRegular:
		if m, err := decodeRegular(r); err == nil {
			n.handleRegular(m)
		}
	case kindPacked:
		if m, err := decodePacked(r); err == nil {
			n.handleRegular(m)
		}
	case kindToken:
		if t, err := decodeToken(r); err == nil {
			n.handleToken(t)
		}
	case kindJoin:
		if j, err := decodeJoin(r); err == nil {
			n.handleJoin(j)
		}
	case kindForward:
		if f, err := decodeForward(r); err == nil {
			n.handleForward(f)
		}
	case kindBatch:
		if b, err := decodeBatch(r); err == nil {
			n.handleBatch(b)
		}
	case kindAck:
		if a, err := decodeAck(r); err == nil {
			n.handleAck(a)
		}
	case kindPromote:
		if p, err := decodePromote(r); err == nil {
			n.handlePromote(p)
		}
	}
}

func (n *Node) handleRegular(m regularMsg) {
	if m.RingID != n.ringID {
		if m.RingID > n.ringID && !n.gathering {
			// Traffic from a newer configuration: we missed a
			// membership change; rejoin.
			n.startGather()
		} else if m.RingID < n.ringID && !n.inRing(m.Sender) && !n.gathering {
			// Traffic from a concurrent foreign ring (partition
			// healing): trigger a merge.
			n.startGather()
		}
		return
	}
	if !n.inRing(m.Sender) {
		// A foreign ring that happens to share our ring id (both sides
		// of a partition increment in lockstep): merge, and do not let
		// its sequence numbers corrupt our buffer.
		if !n.gathering {
			n.startGather()
		}
		return
	}
	if m.Seq <= n.deliveredSeq || n.skipped[m.Seq] {
		return // already delivered or declared unrecoverable
	}
	if _, ok := n.buffer[m.Seq]; ok {
		return // duplicate
	}
	// Genuinely new ring traffic counts as liveness; duplicates and
	// stale retransmissions above do not, so a wedged ring (dead token
	// holder, endlessly resent stale token) still trips the fail timer.
	n.touchLiveness()
	if !n.fpActive {
		// Token pacing is a no-op in leader mode: lastTrafficAt feeds
		// only the ring-mode hold decision, and leader-mode traffic must
		// not skew the first post-demotion rotation.
		n.lastTrafficAt = time.Now()
	}
	n.buffer[m.Seq] = m
	if m.Seq > n.highest {
		n.highest = m.Seq
	}
	// Evidence of ring progress cancels a pending token resend.
	if n.lastSentToken != nil && m.Seq > n.lastSentToken.Seq {
		n.clearTokenResend()
	}
	n.tryDeliver()
	if n.fpActive && n.leaderID != n.id {
		// A sequencer retransmission landed (kindRegular serves naks for
		// ring-era sequence numbers): report the advanced watermark.
		n.scheduleAck()
	}
}

func (n *Node) handleToken(t token) {
	if t.RingID != n.ringID {
		if t.RingID > n.ringID && !n.gathering {
			n.startGather()
		} else if t.RingID < n.ringID && !n.inRing(t.Succ) && !n.gathering {
			// A concurrent foreign ring (partition healing): merge.
			n.startGather()
		}
		return
	}
	if !n.inRing(t.Succ) {
		// Foreign ring sharing our ring id: merge.
		if !n.gathering {
			n.startGather()
		}
		return
	}
	if n.fpActive {
		// The promotion retired this ring's token; anything still in
		// flight is a stale pre-promotion resend. It is never held,
		// quartered or forwarded (token pacing is a no-op in leader
		// mode), and it is not liveness — the sequencer's batches and
		// heartbeats are.
		return
	}
	if t.TokenID <= n.lastTokenID {
		// Stale duplicate from a retransmission. Deliberately not
		// liveness: a ring wedged on a dead member sees only resends of
		// the same token, and must still reconfigure.
		return
	}
	n.lastTokenID = t.TokenID
	n.touchLiveness()
	// Progress evidence: a token newer than the one we forwarded means
	// the successor processed ours, so stop retransmitting it. Our own
	// broadcast echo carries exactly the TokenID we sent and must not
	// count as evidence.
	if n.lastSentToken != nil && t.TokenID > n.lastSentToken.TokenID {
		n.clearTokenResend()
	}
	if n.gathering {
		return
	}
	if t.Succ != n.id {
		// Token observed in passing (tokens are broadcast so every node
		// can use them for liveness and merge detection).
		return
	}
	n.clearTokenResend()
	n.processToken(t)
}

// processToken performs one token visit: apply skips, serve and update
// retransmission requests, broadcast pending messages, maintain the aru
// watermark, age requests (leader only), then forward.
func (n *Node) processToken(t token) {
	work := false

	// Apply the skip list: declared-unrecoverable sequence numbers count
	// as received-but-empty so delivery can proceed past them.
	for _, s := range t.Skip {
		if s > n.deliveredSeq {
			if _, have := n.buffer[s]; !have && !n.skipped[s] {
				n.skipped[s] = true
			}
		}
	}
	n.tryDeliver()

	// Serve retransmission requests we can satisfy. A request is dropped
	// only once served, skipped, or below the confirmed stability
	// watermark (which proves the requester received it); a node must
	// not drop requests merely because it has delivered past them
	// itself.
	kept := t.Rtr[:0]
	for _, e := range t.Rtr {
		if m, ok := n.buffer[e.Seq]; ok {
			m.RingID = n.ringID // restamp for the current configuration
			n.broadcastRaw(encodeRegular(m))
			n.retransmittedN.Add(1)
			work = true
			continue
		}
		if n.skipped[e.Seq] || e.Seq <= t.Stable {
			continue // resolved
		}
		kept = append(kept, e)
	}
	t.Rtr = kept

	// Request what we are missing.
	for s := n.deliveredSeq + 1; s <= t.Seq; s++ {
		if _, ok := n.buffer[s]; ok || n.skipped[s] {
			continue
		}
		if !t.hasRtr(s) {
			t.Rtr = append(t.Rtr, rtrEntry{Seq: s})
		}
	}

	// Broadcast pending messages, consuming new sequence numbers, at
	// most maxBurst messages per visit.
	n.drainSendq()
	drained := 0
	for burst := 0; drained < len(n.pending) && burst < maxBurst; burst++ {
		t.Seq++
		// Pack as many queued payloads as fit into one message (one
		// sequence number, one datagram), as the original Totem fills
		// each packet from the send queue.
		first := drained
		drained = n.nextPack(first)
		m := regularMsg{RingID: n.ringID, Seq: t.Seq, Sender: n.id}
		if drained-first == 1 {
			// A single payload degrades to the plain form: identical
			// wire bytes to the pre-packing protocol.
			m.Payload = n.pending[first]
		} else {
			m.Parts = n.packParts(first, drained)
		}
		n.buffer[t.Seq] = m
		if t.Seq > n.highest {
			n.highest = t.Seq
		}
		n.broadcastRaw(encodeRegular(m))
		n.broadcastN.Add(1)
		work = true
	}
	n.compactPending(drained)
	n.tryDeliver()

	// Stability accounting. Every node folds its own all-received-up-to
	// watermark into the rotation minimum. When the token reaches the
	// leader, the accumulated minimum covers every member's report since
	// the leader's previous visit — one full rotation — so the leader
	// promotes it to the confirmed Stable watermark and starts a fresh
	// rotation minimum. Garbage collection uses only Stable, which
	// guarantees no node discards a message some member still lacks.
	myAru := n.deliveredSeq
	if myAru < t.Aru {
		t.Aru = myAru
	}
	isLeader := len(n.ring) > 0 && n.ring[0] == n.id
	if isLeader {
		if t.Aru > t.Stable {
			t.Stable = t.Aru
			work = true
		}
		t.Aru = myAru
	}

	// Garbage-collect messages everyone is confirmed to have received.
	n.gc(t.Stable)
	kept2 := t.Skip[:0]
	for _, s := range t.Skip {
		if s > t.Stable {
			kept2 = append(kept2, s)
		}
	}
	t.Skip = kept2

	// The leader ages unsatisfied requests once per rotation; requests
	// that survive skipAge rotations are declared unrecoverable: no
	// surviving member holds the message (and therefore none delivered
	// it), so agreement is preserved by skipping it everywhere.
	if isLeader {
		kept3 := t.Rtr[:0]
		for _, e := range t.Rtr {
			e.Age++
			if int(e.Age) > skipAge {
				t.Skip = append(t.Skip, e.Seq)
				if e.Seq > n.deliveredSeq && !n.skipped[e.Seq] {
					n.skipped[e.Seq] = true
				}
				n.skippedN.Add(1)
				work = true
				continue
			}
			kept3 = append(kept3, e)
		}
		t.Rtr = kept3
		n.tryDeliver()
	}

	// Leader-ordered fast path: once the ring is mature and fully
	// quiescent — every assigned sequence number delivered everywhere,
	// nothing outstanding — the current holder promotes to sequencer and
	// retires the token instead of forwarding it. The quiescence
	// condition makes the switch sequence exact: every node has delivered
	// precisely through t.Seq in ring order, so t.Seq is the agreed
	// boundary between token-ordered and leader-ordered traffic.
	if n.cfg.Ordering == OrderingLeader &&
		t.TokenID > uint64(2*len(n.ring)) &&
		t.Stable == t.Seq && n.deliveredSeq == t.Seq &&
		len(t.Rtr) == 0 && len(t.Skip) == 0 {
		n.promote(t)
		return
	}

	// Forward immediately if this visit did work or left work pending;
	// otherwise hold before forwarding so an idle ring does not spin.
	// Within eight idle holds of the last traffic the hold is cut to a
	// quarter: a request submitted at any member mid-conversation meets
	// the token after short holds instead of full idle holds, while the
	// shortened hold still paces rotation enough that token processing
	// does not crowd out payload delivery (a zero hold here floods every
	// member's event loop with token broadcasts and makes latency worse).
	n.heldToken = &t
	n.workInHold = work || len(t.Rtr) > 0 || t.Aru < t.Seq
	if n.workInHold {
		n.finishHold()
		return
	}
	hold := idleHold
	if time.Since(n.lastTrafficAt) < 8*idleHold {
		hold /= 4
	}
	n.holdUntil = time.Now().Add(hold)
}

// finishHold forwards the held token to the ring successor.
func (n *Node) finishHold() {
	t := n.heldToken
	n.heldToken = nil
	n.holdUntil = time.Time{}
	if t == nil {
		return
	}
	t.TokenID++
	t.Succ = n.successor()
	sent := *t
	n.lastSentToken = &sent
	n.tokenResendAt = time.Now().Add(n.tokenRetransmit())
	n.broadcastRaw(encodeToken(*t))
	n.tokenPassN.Add(1)
}

// successor returns the next member after this node on the ring.
func (n *Node) successor() memnet.NodeID {
	for i, m := range n.ring {
		if m == n.id {
			return n.ring[(i+1)%len(n.ring)]
		}
	}
	// Not on the ring (should not happen operationally); loop to self so
	// the token is not lost.
	return n.id
}

func (n *Node) clearTokenResend() {
	n.lastSentToken = nil
	n.tokenResendAt = time.Time{}
}

// tryDeliver delivers buffered messages in contiguous sequence order.
func (n *Node) tryDeliver() {
	for {
		next := n.deliveredSeq + 1
		if n.skipped[next] {
			n.deliveredSeq = next
			continue
		}
		m, ok := n.buffer[next]
		if !ok {
			return
		}
		n.deliveredSeq = next
		if len(m.Parts) > 0 {
			// Unpack: each payload becomes its own delivery, ordered within
			// the message by its sub-index.
			for i, p := range m.Parts {
				n.deliveredN.Add(1)
				n.emit(Event{Type: EventDeliver, Delivery: Delivery{
					Seq:     m.Seq,
					Sub:     uint32(i),
					RingID:  m.RingID,
					Sender:  m.Sender,
					Payload: p,
				}})
			}
			continue
		}
		n.deliveredN.Add(1)
		n.emit(Event{Type: EventDeliver, Delivery: Delivery{
			Seq:     m.Seq,
			RingID:  m.RingID,
			Sender:  m.Sender,
			Payload: m.Payload,
		}})
	}
}

// gc discards buffered and skipped entries at or below the stability
// watermark: every ring member has received them.
func (n *Node) gc(aru uint64) {
	for s := range n.buffer {
		if s <= aru {
			delete(n.buffer, s)
		}
	}
	for s := range n.skipped {
		if s <= aru {
			delete(n.skipped, s)
		}
	}
}

func (n *Node) emit(ev Event) {
	//lint:allow looplock delivery backpressure is intentional and the stop channel bounds the wait
	select {
	// This send is where the arena borrow begins, not where it leaks:
	// the events channel is the protocol's delivery handoff, and the
	// consumer contract (Config.Events doc) is to finish or copy each
	// event before taking the next.
	//lint:allow arenaalias the delivery channel is the borrow's sanctioned handoff point
	case n.events <- ev:
	case <-n.stop:
	}
}

func (n *Node) touchLiveness() {
	if !n.gathering {
		n.failDeadline = time.Now().Add(n.cfg.FailTimeout)
	}
}

func (n *Node) inRing(id memnet.NodeID) bool {
	for _, m := range n.ring {
		if m == id {
			return true
		}
	}
	return false
}

func (n *Node) broadcastRaw(b []byte) {
	// A crashed node's sends fail; the loop keeps running so the node
	// can rejoin after a simulated restart.
	_ = n.ep.Broadcast(b)
}

// startGather begins membership recovery.
func (n *Node) startGather() {
	if n.fpActive {
		// Any fall into membership recovery from leader mode is a
		// demotion: the ring rotates again until a fresh promotion.
		n.demotionN.Add(1)
		n.leaveLeaderMode()
	}
	n.gathering = true
	n.heldToken = nil
	n.holdUntil = time.Time{}
	n.clearTokenResend()
	n.failDeadline = time.Time{}
	n.alive = map[memnet.NodeID]bool{n.id: true}
	n.joinHighest = map[memnet.NodeID]uint64{n.id: n.highest}
	n.joinAru = map[memnet.NodeID]uint64{n.id: n.deliveredSeq}
	if n.ringID+1 > n.proposedRingID {
		n.proposedRingID = n.ringID + 1
	}
	n.gatherDeadline = time.Now().Add(n.cfg.GatherTimeout)
	n.sendJoin()
}

func (n *Node) sendJoin() {
	alive := make([]memnet.NodeID, 0, len(n.alive))
	for id := range n.alive {
		alive = append(alive, id)
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	n.broadcastRaw(encodeJoin(joinMsg{
		Sender:  n.id,
		Alive:   alive,
		RingID:  n.proposedRingID,
		Highest: n.highest,
		Aru:     n.deliveredSeq,
	}))
}

func (n *Node) handleJoin(j joinMsg) {
	if !n.gathering {
		// Stale echo from a completed gather we already installed.
		if j.RingID <= n.ringID && n.inRing(j.Sender) {
			return
		}
		n.startGather()
	}
	changed := false
	if !n.alive[j.Sender] {
		n.alive[j.Sender] = true
		changed = true
	}
	for _, id := range j.Alive {
		if !n.alive[id] {
			n.alive[id] = true
			changed = true
		}
	}
	n.joinHighest[j.Sender] = j.Highest
	n.joinAru[j.Sender] = j.Aru
	if j.RingID > n.proposedRingID {
		n.proposedRingID = j.RingID
		changed = true
	}
	if changed {
		n.gatherDeadline = time.Now().Add(n.cfg.GatherTimeout)
		n.sendJoin()
	}
}

// installRing ends the gather phase: the stable alive set becomes the new
// ring, and the lowest-id member generates the new token.
func (n *Node) installRing() {
	members := make([]memnet.NodeID, 0, len(n.alive))
	for id := range n.alive {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	n.ring = members
	n.ringID = n.proposedRingID
	n.gathering = false
	n.lastTokenID = 0
	n.gatherDeadline = time.Time{}
	n.failDeadline = time.Now().Add(n.cfg.FailTimeout)
	n.reconfigN.Add(1)
	// Start the new ring's pacing clock now: after a promotion/demotion
	// cycle the previous epoch's traffic timestamps must not add idle
	// holds to (or remove them from) the first post-switch rotations.
	n.lastTrafficAt = time.Now()

	n.mu.Lock()
	n.curMembers = members
	n.curRingID = n.ringID
	n.mu.Unlock()

	n.emit(Event{Type: EventConfig, Config: ConfigChange{
		RingID:  n.ringID,
		Members: members,
	}})

	if members[0] != n.id {
		return
	}
	// Leader: create the first token of the new ring. Seq resumes from
	// the highest sequence number any survivor reported, and the
	// stability watermark starts at the minimum so no survivor
	// garbage-collects messages another still needs.
	var maxHighest, minAru uint64
	first := true
	for id := range n.alive {
		h, ok := n.joinHighest[id]
		if !ok {
			continue
		}
		if h > maxHighest {
			maxHighest = h
		}
		a := n.joinAru[id]
		if first || a < minAru {
			minAru = a
			first = false
		}
	}
	if n.highest > maxHighest {
		maxHighest = n.highest
	}
	t := token{
		RingID:  n.ringID,
		TokenID: 1,
		Seq:     maxHighest,
		Aru:     minAru,
		Stable:  minAru,
	}
	// Process the fresh token as if it had just arrived addressed to us.
	n.lastTokenID = t.TokenID
	n.processToken(t)
}

// hasRtr reports whether seq already has a retransmission request.
func (t token) hasRtr(seq uint64) bool {
	for _, e := range t.Rtr {
		if e.Seq == seq {
			return true
		}
	}
	return false
}
