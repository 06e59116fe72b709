package totem

// Leader-ordered fast path (Config.Ordering == OrderingLeader), in the
// style of LLFT's leader-follower ordering. Once a ring is installed and
// fully quiescent, the current token holder promotes itself to sequencer
// and retires the token. From then on the common path has no token wait:
// a node with pending payloads forwards them to the sequencer
// immediately (kindForward), the sequencer assigns the next sequence
// numbers and multicasts ordered batches (kindBatch, the packed wire
// form plus a leader header), and followers report their contiguous
// received watermark (kindAck) so the sequencer advances a stability
// horizon that replaces the token-carried aru for garbage collection and
// retransmission decisions. Promotion and each heartbeat are kindPromote.
//
// Failure handling is demotion: the sequencer demotes when a member's
// acks go stale past FailTimeout or when the stability lag exceeds
// fastpathLagLimit; a follower demotes when the sequencer's traffic
// stops (the ordinary fail timer) or when its forwards are resent
// maxFwdResends times without being ordered (a wedged-but-heartbeating
// sequencer). Demotion is simply membership recovery — startGather — so
// the token-regeneration path doubles as the fast path's recovery
// protocol, after which a fresh promotion can follow on the new ring.
//
// The mode switch is installed at an agreed sequence: promotion requires
// every assigned sequence number delivered at every member (stable ==
// seq == local aru, no outstanding requests or skips), so promoteSeq is
// exactly the boundary below which everything was token-ordered and
// above which everything is leader-ordered within the ring. All
// functions here run on the protocol goroutine and share its state
// ownership rules.

import (
	"time"

	"eternalgw/internal/memnet"
)

const (
	// maxFwdStash bounds out-of-order forwards stashed per origin; drops
	// beyond it are recovered by the origin's resend timer.
	maxFwdStash = 64
	// maxFwdResends is how many times a follower resends an unordered
	// forward before declaring the sequencer wedged and demoting.
	maxFwdResends = 8
	// maxNaks bounds gap requests per ack datagram.
	maxNaks = 64
)

func (n *Node) heartbeatInterval() time.Duration { return n.cfg.FailTimeout / 4 }
func (n *Node) ackDelay() time.Duration          { return idleHold / 2 }

// promote installs this node as the ring's sequencer, consuming the
// token for good (only the addressed holder of a live token can get
// here, so at most one promotion happens per ring).
func (n *Node) promote(t token) {
	now := time.Now()
	n.fpActive = true
	n.leaderID = n.id
	n.promoteSeq = t.Seq
	n.leaderSeq = t.Seq
	n.leaderStable = t.Stable
	n.fpSeqA.Store(t.Seq)
	n.fpStableA.Store(t.Stable)
	n.memberAru = make(map[memnet.NodeID]uint64, len(n.ring))
	n.memberAckAt = make(map[memnet.NodeID]time.Time, len(n.ring))
	for _, m := range n.ring {
		if m == n.id {
			continue
		}
		n.memberAru[m] = t.Stable
		n.memberAckAt[m] = now
	}
	n.fwdSeen = make(map[memnet.NodeID]uint64)
	n.fwdStash = make(map[memnet.NodeID]map[uint64]forwardMsg)
	n.fwdLast = make(map[memnet.NodeID]uint64)
	n.batchOrigin = make(map[uint64]batchRef)
	n.fwdNext = 0
	n.awaiting = nil
	n.awaitingParts = 0
	n.heldToken = nil
	n.holdUntil = time.Time{}
	n.clearTokenResend()
	n.heartbeatAt = now.Add(n.heartbeatInterval())
	n.failDeadline = now.Add(n.cfg.FailTimeout)
	n.promotionN.Add(1)
	n.setFastpathMirror(n.id, t.Seq)
	n.broadcastRaw(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.id, StartSeq: t.Seq, Stable: t.Stable,
	}))
	n.drainSendq()
	n.leaderOrderPending()
}

// adoptLeader installs a remote sequencer on this node. startSeq may be
// zero when adoption was triggered by a batch (the promote datagram was
// lost); the next heartbeat fills in the agreed switch sequence.
func (n *Node) adoptLeader(leader memnet.NodeID, startSeq, stable uint64) {
	n.fpActive = true
	n.leaderID = leader
	n.promoteSeq = startSeq
	n.fwdNext = 0
	n.awaiting = nil
	n.awaitingParts = 0
	n.fwdResendAt = time.Time{}
	n.ackDueAt = time.Time{}
	n.heldToken = nil
	n.holdUntil = time.Time{}
	n.clearTokenResend()
	n.promotionN.Add(1)
	n.setFastpathMirror(leader, startSeq)
	n.touchLiveness()
	n.applyStable(stable)
	n.drainSendq()
	n.forwardPending()
	n.sendAck(time.Now())
}

// leaveLeaderMode tears the fast path down on the way into membership
// recovery (the only exit from leader mode).
func (n *Node) leaveLeaderMode() {
	n.fpActive = false
	n.leaderID = ""
	// Forwards the sequencer never ordered go back to the front of the
	// send queue and rotate out with the new ring. If a batch for one of
	// them did reach some member, ring recovery re-delivers it there and
	// the requeued copy becomes a second delivery under a new sequence
	// number — which the replication layer's operation-id dedup absorbs,
	// the same way it absorbs gateway retries.
	if len(n.awaiting) > 0 {
		requeued := make([][]byte, 0, n.awaitingParts+len(n.pending))
		for _, a := range n.awaiting {
			requeued = append(requeued, a.parts...)
		}
		n.pending = append(requeued, n.pending...)
	}
	n.awaiting = nil
	n.awaitingParts = 0
	n.pendingN.Store(int64(len(n.pending)))
	n.memberAru = nil
	n.memberAckAt = nil
	n.fwdSeen = nil
	n.fwdStash = nil
	n.fwdLast = nil
	n.batchOrigin = nil
	n.fwdNext = 0
	n.heartbeatAt = time.Time{}
	n.fwdResendAt = time.Time{}
	n.ackDueAt = time.Time{}
	n.fpSeqA.Store(0)
	n.fpStableA.Store(0)
	n.setFastpathMirror("", 0)
}

func (n *Node) setFastpathMirror(leader memnet.NodeID, startSeq uint64) {
	n.mu.Lock()
	n.curLeader = leader
	n.curLeaderSeq = startSeq
	n.mu.Unlock()
}

// compactPending drops the first drained entries of the send queue
// without retaining payload slices in the backing array.
func (n *Node) compactPending(drained int) {
	if drained == 0 {
		return
	}
	rest := len(n.pending) - drained
	copy(n.pending, n.pending[drained:])
	for i := rest; i < len(n.pending); i++ {
		n.pending[i] = nil
	}
	n.pending = n.pending[:rest]
	n.pendingN.Store(int64(rest))
}

// nextPack returns the end index (exclusive) of the pack that starts at
// pending[first]: as many queued payloads as fit one ordered message
// under the maxPackCount and maxPackBytes bounds. The first payload is
// always taken, so an oversized payload still travels (alone).
func (n *Node) nextPack(first int) int {
	end := first + 1
	bytes := len(n.pending[first])
	for end < len(n.pending) &&
		end-first < maxPackCount &&
		bytes+len(n.pending[end]) <= maxPackBytes {
		bytes += len(n.pending[end])
		end++
	}
	return end
}

// packParts copies pending[first:end] out of the send queue, counting it
// as a pack when it carries more than one payload.
func (n *Node) packParts(first, end int) [][]byte {
	parts := make([][]byte, end-first)
	copy(parts, n.pending[first:end])
	if len(parts) > 1 {
		n.packedMsgN.Add(1)
		n.packedPartN.Add(uint64(len(parts)))
	}
	return parts
}

// forwardPending ships every queued payload to the sequencer instead of
// waiting for a token visit: the fast path's datapath entry on a
// follower. Payloads are chunked by the same packing bounds the ring
// uses, each chunk one forward; the chunk stays in awaiting until its
// ordered batch comes back.
func (n *Node) forwardPending() {
	n.drainSendq()
	drained := 0
	for drained < len(n.pending) {
		first := drained
		drained = n.nextPack(first)
		parts := n.packParts(first, drained)
		n.fwdNext++
		n.awaiting = append(n.awaiting, awaitingFwd{fwd: n.fwdNext, parts: parts})
		n.awaitingParts += len(parts)
		n.broadcastRaw(encodeForward(forwardMsg{
			RingID: n.ringID, Sender: n.id, FwdSeq: n.fwdNext, Parts: parts,
		}))
		n.broadcastN.Add(1)
		n.forwardedN.Add(uint64(len(parts)))
	}
	n.compactPending(drained)
	n.pendingN.Store(int64(len(n.pending) + n.awaitingParts))
	if len(n.awaiting) > 0 && n.fwdResendAt.IsZero() {
		n.fwdResendAt = time.Now().Add(n.tokenRetransmit())
	}
}

// leaderOrderPending orders the sequencer's own submissions directly.
func (n *Node) leaderOrderPending() {
	n.drainSendq()
	drained := 0
	for drained < len(n.pending) {
		first := drained
		drained = n.nextPack(first)
		parts := n.packParts(first, drained)
		n.fwdNext++
		n.broadcastN.Add(1)
		if !n.orderParts(n.id, n.fwdNext, parts) {
			// Demoted mid-drain (stability lag): what was not ordered
			// stays pending for the ring.
			break
		}
	}
	n.compactPending(drained)
}

// orderParts assigns the next sequence number to one forward's payloads,
// multicasts the ordered batch, and delivers locally. It reports false
// when ordering stopped because the stability-lag limit demoted the ring.
func (n *Node) orderParts(origin memnet.NodeID, fwd uint64, parts [][]byte) bool {
	n.leaderSeq++
	seq := n.leaderSeq
	m := regularMsg{RingID: n.ringID, Seq: seq, Sender: origin}
	if len(parts) == 1 {
		m.Payload = parts[0]
	} else {
		m.Parts = parts
	}
	n.buffer[seq] = m
	if seq > n.highest {
		n.highest = seq
	}
	n.batchOrigin[seq] = batchRef{origin: origin, fwd: fwd}
	n.fwdLast[origin] = seq
	n.fpSeqA.Store(seq)
	n.leaderBatchN.Add(1)
	n.broadcastRaw(encodeBatch(batchMsg{
		RingID: n.ringID, Seq: seq, Leader: n.id,
		Origin: origin, OriginFwd: fwd,
		Stable: n.leaderStable, Parts: parts,
	}))
	n.tryDeliver()
	n.updateStability()
	if seq-n.leaderStable > fastpathLagLimit {
		// Backlog imbalance: a member is not confirming. Demote to ring
		// rotation rather than buffer without bound.
		n.startGather()
		return false
	}
	return true
}

// handleForward is the sequencer's side of the datapath: order each
// origin's forwards in FwdSeq order, exactly once.
func (n *Node) handleForward(f forwardMsg) {
	if f.RingID != n.ringID {
		if f.RingID > n.ringID && !n.gathering {
			n.startGather()
		}
		return
	}
	if n.gathering || !n.fpActive || n.leaderID != n.id {
		return
	}
	if !n.inRing(f.Sender) {
		n.startGather()
		return
	}
	n.touchLiveness()
	n.memberAckAt[f.Sender] = time.Now()
	seen := n.fwdSeen[f.Sender]
	if f.FwdSeq <= seen {
		// A resend of a forward already ordered: the origin has not seen
		// its batch. Repeat the origin's most recent batch so it can
		// clear its awaiting list (earlier ones re-trigger naks if also
		// lost).
		if seq, ok := n.fwdLast[f.Sender]; ok {
			if m, have := n.buffer[seq]; have {
				n.rebroadcastOrdered(seq, m)
			}
		}
		return
	}
	if f.FwdSeq > seen+1 {
		// Out of order: stash until the gap fills; the origin's resend
		// timer recovers drops beyond the bounded stash.
		stash := n.fwdStash[f.Sender]
		if stash == nil {
			stash = make(map[uint64]forwardMsg)
			n.fwdStash[f.Sender] = stash
		}
		if len(stash) < maxFwdStash {
			stash[f.FwdSeq] = f
		}
		return
	}
	if !n.orderParts(f.Sender, f.FwdSeq, f.Parts) {
		return
	}
	n.fwdSeen[f.Sender] = f.FwdSeq
	for {
		next, ok := n.fwdStash[f.Sender][n.fwdSeen[f.Sender]+1]
		if !ok {
			return
		}
		delete(n.fwdStash[f.Sender], next.FwdSeq)
		if !n.orderParts(f.Sender, next.FwdSeq, next.Parts) {
			return
		}
		n.fwdSeen[f.Sender] = next.FwdSeq
	}
}

// rebroadcastOrdered retransmits an ordered sequence number: as a batch
// when it was leader-ordered (so the origin also learns its forward came
// back), in the plain regular form for ring-era sequence numbers.
func (n *Node) rebroadcastOrdered(seq uint64, m regularMsg) {
	if ref, ok := n.batchOrigin[seq]; ok {
		parts := m.Parts
		if parts == nil {
			parts = [][]byte{m.Payload}
		}
		n.broadcastRaw(encodeBatch(batchMsg{
			RingID: n.ringID, Seq: seq, Leader: n.id,
			Origin: ref.origin, OriginFwd: ref.fwd,
			Stable: n.leaderStable, Parts: parts,
		}))
	} else {
		m.RingID = n.ringID
		n.broadcastRaw(encodeRegular(m))
	}
	n.retransmittedN.Add(1)
}

// handleBatch accepts an ordered batch from the sequencer. The payload
// path is handleRegular — a batch is a packed regular message ordered by
// the leader instead of a token visit — so buffering, gap detection,
// contiguous delivery and recovery-time retransmission all behave
// identically in both modes.
func (n *Node) handleBatch(b batchMsg) {
	if b.RingID == n.ringID && !n.gathering {
		if !n.inRing(b.Leader) {
			n.startGather()
			return
		}
		if !n.fpActive {
			if n.cfg.Ordering != OrderingLeader {
				return // misconfigured peer promoted; refuse the mode
			}
			// First evidence of a promotion whose datagram we lost:
			// adopt now; the heartbeat fills in the switch sequence.
			n.adoptLeader(b.Leader, 0, b.Stable)
		} else if n.leaderID != b.Leader {
			// Two sequencers inside one ring is impossible by
			// construction (one live token, one promotion per ring);
			// treat it as corruption and resolve through recovery.
			n.startGather()
			return
		}
	}
	m := regularMsg{RingID: b.RingID, Seq: b.Seq, Sender: b.Origin}
	if len(b.Parts) == 1 {
		m.Payload = b.Parts[0]
	} else {
		m.Parts = b.Parts
	}
	n.handleRegular(m)
	if b.RingID != n.ringID || n.gathering || !n.fpActive || n.leaderID != b.Leader {
		return
	}
	n.applyStable(b.Stable)
	if b.Origin == n.id && n.leaderID != n.id {
		n.clearOrdered(b.OriginFwd)
	}
}

// clearOrdered drops awaiting forwards up to fwd: the sequencer orders
// one origin's forwards in FwdSeq order, so seeing fwd ordered implies
// everything before it was too.
func (n *Node) clearOrdered(fwd uint64) {
	kept := n.awaiting[:0]
	parts := 0
	for _, a := range n.awaiting {
		if a.fwd <= fwd {
			continue
		}
		parts += len(a.parts)
		kept = append(kept, a)
	}
	for i := len(kept); i < len(n.awaiting); i++ {
		n.awaiting[i] = awaitingFwd{} // release payload slices
	}
	n.awaiting = kept
	n.awaitingParts = parts
	n.pendingN.Store(int64(len(n.pending) + parts))
	if len(n.awaiting) == 0 {
		n.fwdResendAt = time.Time{}
	}
}

// handleAck folds a follower's watermark into the stability horizon and
// serves its gap requests. Only the sequencer consumes acks.
func (n *Node) handleAck(a ackMsg) {
	if a.RingID != n.ringID {
		if a.RingID > n.ringID && !n.gathering {
			n.startGather()
		}
		return
	}
	if n.gathering || !n.fpActive || n.leaderID != n.id || a.Sender == n.id {
		return
	}
	if !n.inRing(a.Sender) {
		n.startGather()
		return
	}
	n.touchLiveness()
	n.memberAckAt[a.Sender] = time.Now()
	if a.Aru > n.memberAru[a.Sender] {
		n.memberAru[a.Sender] = a.Aru
	}
	n.updateStability()
	for _, s := range a.Nak {
		if m, ok := n.buffer[s]; ok {
			n.rebroadcastOrdered(s, m)
		}
		// A buffer miss means s is at or below the stability horizon —
		// the requester is proven to have received it — so the nak is a
		// stale crossing and is ignored.
	}
}

// handlePromote installs a sequencer (first receipt) or refreshes it
// (heartbeats). Heartbeats are the sequencer's liveness signal and carry
// the stability horizon for idle epochs.
func (n *Node) handlePromote(p promoteMsg) {
	if p.RingID != n.ringID {
		if p.RingID > n.ringID && !n.gathering {
			n.startGather()
		} else if p.RingID < n.ringID && !n.inRing(p.Leader) && !n.gathering {
			n.startGather() // concurrent foreign ring: merge
		}
		return
	}
	if n.gathering {
		return
	}
	if !n.inRing(p.Leader) {
		n.startGather()
		return
	}
	if n.cfg.Ordering != OrderingLeader {
		// A misconfigured peer promoted; refusing to adopt starves it of
		// acks and it demotes within its fail timeout.
		return
	}
	if !n.fpActive {
		n.adoptLeader(p.Leader, p.StartSeq, p.Stable)
		return
	}
	if n.leaderID != p.Leader {
		n.startGather() // conflicting sequencers: resolve through recovery
		return
	}
	n.promoteSeq = p.StartSeq
	n.setFastpathMirror(p.Leader, p.StartSeq)
	if n.leaderID == n.id {
		return // own broadcast echo
	}
	n.touchLiveness()
	n.clearTokenResend()
	n.applyStable(p.Stable)
	// Answer immediately so the sequencer's failure detector sees this
	// member alive even when the epoch is idle.
	n.sendAck(time.Now())
}

// applyStable advances the follower's view of the stability horizon.
func (n *Node) applyStable(stable uint64) {
	if stable > n.leaderStable {
		n.leaderStable = stable
		n.gc(stable)
	}
}

// updateStability recomputes the sequencer's stability horizon: the
// minimum acked watermark across the ring (its own is deliveredSeq).
func (n *Node) updateStability() {
	min := n.deliveredSeq
	for _, m := range n.ring {
		if m == n.id {
			continue
		}
		if a := n.memberAru[m]; a < min {
			min = a
		}
	}
	if min > n.leaderStable {
		n.leaderStable = min
		n.fpStableA.Store(min)
		n.gc(min)
		for s := range n.batchOrigin {
			if s <= min {
				delete(n.batchOrigin, s)
			}
		}
	}
}

// leaderHeartbeat runs on the sequencer's heartbeat timer: check member
// liveness through ack staleness, then re-announce the epoch.
func (n *Node) leaderHeartbeat(now time.Time) {
	if !n.fpActive || n.leaderID != n.id {
		n.heartbeatAt = time.Time{}
		return
	}
	// Ack staleness is the sequencer's failure detector (it no longer
	// sees the token): a silent member demotes the ring back to
	// rotation, whose membership recovery sorts out who is alive.
	for _, m := range n.ring {
		if m == n.id {
			continue
		}
		if at, ok := n.memberAckAt[m]; ok && now.Sub(at) > n.cfg.FailTimeout {
			n.startGather()
			return
		}
	}
	n.broadcastRaw(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.id, StartSeq: n.promoteSeq, Stable: n.leaderStable,
	}))
	n.heartbeatAt = now.Add(n.heartbeatInterval())
	// The members just proved live above; the sequencer's own fail timer
	// must not fire merely because an idle epoch has no inbound traffic.
	n.failDeadline = now.Add(n.cfg.FailTimeout)
}

// resendForwards retries forwards the sequencer has not ordered yet, and
// escapes through recovery when it never does.
func (n *Node) resendForwards(now time.Time) {
	if !n.fpActive || n.leaderID == n.id || len(n.awaiting) == 0 {
		n.fwdResendAt = time.Time{}
		return
	}
	for i := range n.awaiting {
		a := &n.awaiting[i]
		a.resends++
		if a.resends > maxFwdResends {
			// The sequencer heartbeats but never orders our forwards:
			// wedged. Escape through membership recovery.
			n.startGather()
			return
		}
		n.broadcastRaw(encodeForward(forwardMsg{
			RingID: n.ringID, Sender: n.id, FwdSeq: a.fwd, Parts: a.parts,
		}))
	}
	n.fwdResendAt = now.Add(n.tokenRetransmit())
}

// scheduleAck coalesces stability reports: the first watermark movement
// arms the timer, later ones ride along when it fires.
func (n *Node) scheduleAck() {
	if !n.fpActive || n.leaderID == n.id {
		return
	}
	if n.ackDueAt.IsZero() {
		n.ackDueAt = time.Now().Add(n.ackDelay())
	}
}

// sendAck reports this follower's contiguous watermark plus
// retransmission requests for any observed gaps.
func (n *Node) sendAck(now time.Time) {
	if !n.fpActive || n.leaderID == n.id {
		n.ackDueAt = time.Time{}
		return
	}
	a := ackMsg{RingID: n.ringID, Sender: n.id, Aru: n.deliveredSeq}
	for s := n.deliveredSeq + 1; s <= n.highest && len(a.Nak) < maxNaks; s++ {
		if _, ok := n.buffer[s]; ok || n.skipped[s] {
			continue
		}
		a.Nak = append(a.Nak, s)
	}
	n.broadcastRaw(encodeAck(a))
	if len(a.Nak) > 0 {
		// Gaps outstanding: keep re-nakking until retransmissions land.
		n.ackDueAt = now.Add(n.tokenRetransmit())
	} else {
		n.ackDueAt = time.Time{}
	}
}
