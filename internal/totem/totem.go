// Package totem implements a single-ring totally-ordered reliable
// multicast protocol in the style of Totem (Moser et al., CACM 39(4),
// 1996), which the Eternal system uses as the communication substrate
// inside a fault tolerance domain.
//
// A logical token circulates around a ring of nodes. Only the token
// holder may broadcast regular messages, stamping each with the next
// global sequence number taken from the token; every node delivers
// regular messages in sequence-number order, which yields a single
// system-wide total order. The token also carries a retransmission-
// request list (recovering lost messages), an all-received-up-to
// watermark (garbage-collecting stable messages), and a skip list
// (declaring messages that no surviving member holds after a failure).
//
// Membership: when a node's token-loss timer fires, it enters a gather
// phase, exchanging Join messages until the set of responsive nodes is
// stable; the lowest-id survivor then installs a new ring and generates a
// fresh token. Configuration changes are delivered to the application in
// order with respect to regular messages, as virtual synchrony requires.
//
// The sequence numbers exposed in Delivery.Seq are exactly the
// "timestamps derived from the totally-ordered message sequence numbers"
// that the paper's operation identifiers are built from (paper section
// 3.3): they are filled in at the receiving end, because a sender cannot
// know its message's position in the total order in advance.
package totem

import (
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
)

// Delivery is one totally-ordered message handed to the application.
type Delivery struct {
	// Seq is the enclosing wire message's global sequence number:
	// identical at every node and non-decreasing across deliveries. With
	// packing enabled several payloads travel in one packed message and
	// share its Seq; Sub orders them within it.
	Seq uint64
	// Sub is the payload's index within its packed wire message (0 for
	// unpacked messages). (Seq, Sub) is unique and strictly increasing
	// in lexicographic order, identically at every node.
	Sub uint32
	// RingID identifies the ring configuration the message was ordered
	// in.
	RingID uint64
	// Sender is the node that originated the message.
	Sender memnet.NodeID
	// Payload is the application payload.
	Payload []byte
}

// subTimestampBits is how far Seq is shifted when folding Sub into a
// single ordered timestamp; maxPackCount stays below 1<<subTimestampBits.
const subTimestampBits = 16

// Timestamp folds (Seq, Sub) into one uint64 that is unique, strictly
// increasing in delivery order, and identical at every node: the
// "timestamp derived from the totally-ordered message sequence numbers"
// that the paper's operation identifiers are built from (section 3.3).
func (d Delivery) Timestamp() uint64 {
	return d.Seq<<subTimestampBits | uint64(d.Sub)
}

// ConfigChange reports a membership change: a new ring was installed.
type ConfigChange struct {
	RingID  uint64
	Members []memnet.NodeID
}

// Transport carries the ring's datagrams: unordered, unreliable,
// broadcast-capable (with self-delivery), exactly the service a LAN
// offers the original Totem. memnet.Endpoint implements it for the
// simulated network; udpnet.Endpoint implements it over real UDP.
type Transport interface {
	// ID is the local node's identity on the network.
	ID() memnet.NodeID
	// Recv returns the incoming datagram stream.
	Recv() <-chan memnet.Packet
	// Broadcast sends a datagram to every node, including the sender.
	Broadcast(payload []byte) error
}

// OrderingMode selects how a ring totally orders messages.
type OrderingMode int

const (
	// OrderingRing is the classic Totem rotation: only the circulating
	// token's holder broadcasts, so a submission waits for the token to
	// come around. Latency is bounded below by the rotation time, but no
	// single node is on the datapath of every message.
	OrderingRing OrderingMode = iota
	// OrderingLeader enables the leader-ordered fast path (in the style
	// of LLFT's leader-follower ordering): once a ring is installed and
	// quiescent, the current token holder promotes itself to sequencer
	// and retires the token. Nodes forward pending payloads to the
	// sequencer immediately; it assigns sequence numbers and multicasts
	// ordered batches, while followers ack so the sequencer advances a
	// stability horizon replacing the token-carried aru. Leader failure
	// or an unbounded stability lag demotes the ring cleanly back to
	// token rotation (the membership-recovery protocol), from which a
	// fresh promotion can follow. The total-order, gap-recovery and
	// virtual-synchrony guarantees are identical in both modes.
	OrderingLeader
)

// Protocol bounds and timers that do not depend on the deployment's
// network. The failure-detector timings in Config are the only settings
// a deployment tunes.
const (
	// maxBurst bounds how many regular messages one token visit may
	// broadcast.
	maxBurst = 64
	// idleHold is how long an idle token holder waits before forwarding
	// the token, throttling rotation when there is no traffic.
	idleHold = 200 * time.Microsecond
	// maxPackCount bounds how many payloads one packed message carries;
	// it must stay below 1<<subTimestampBits so (Seq, Sub) folds into a
	// single 64-bit timestamp.
	maxPackCount = 32
	// maxPackBytes bounds the payload bytes of one packed message, so a
	// pack fits one datagram on real transports (udpnet reassembles up
	// to 64 KiB). A payload larger than the bound is never packed; it
	// travels alone as a plain regular message.
	maxPackBytes = 32 << 10
	// fastpathLagLimit bounds, in sequence numbers, how far the
	// sequencer may run ahead of the stability horizon before it demotes
	// the ring back to token rotation (leader mode's backlog-imbalance
	// escape: a follower that cannot keep up would otherwise force
	// unbounded buffering everywhere).
	fastpathLagLimit = 4096
)

// Config parameterizes a Node.
type Config struct {
	// Endpoint is the node's attachment to the network; its ID is the
	// node's identity.
	Endpoint Transport
	// Members is the initial ring membership, including this node.
	// All founding members must be configured with the same list.
	Members []memnet.NodeID

	// FailTimeout is how long a node tolerates not seeing the token (or
	// any ring traffic) before starting membership recovery. Zero means
	// 250ms. A tenth of it is how long the previous holder waits for
	// evidence of progress before resending the token.
	FailTimeout time.Duration
	// GatherTimeout is how long the alive-set must be stable during
	// membership recovery before a new ring is installed. Zero means
	// 60ms.
	GatherTimeout time.Duration

	// Ordering selects the total-order mechanism: the token ring
	// (default) or the leader-ordered fast path. All members must
	// configure the same value; the ring always starts in ring mode and
	// only promotes a sequencer once installed and quiescent, so mixed
	// settings degrade to whichever nodes refuse to adopt (and then to a
	// membership change), not to an ordering violation.
	Ordering OrderingMode

	// Metrics, when set, exposes the node's protocol counters on the
	// registry, labelled node=<ID>. The protocol goroutine keeps its
	// bare atomic counters; the registry reads them only at scrape time.
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.FailTimeout == 0 {
		c.FailTimeout = 250 * time.Millisecond
	}
	if c.GatherTimeout == 0 {
		c.GatherTimeout = 60 * time.Millisecond
	}
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	Broadcast     uint64 // regular datagrams this node originated (a pack counts once)
	Delivered     uint64 // application payloads delivered in total order
	Retransmitted uint64 // retransmissions this node served
	Skipped       uint64 // sequence numbers declared unrecoverable
	TokenPasses   uint64 // tokens this node forwarded
	Reconfigs     uint64 // ring installations
	PackedMsgs    uint64 // packed datagrams this node originated
	PackedParts   uint64 // payloads that travelled inside those packs
	Forwarded     uint64 // payloads this node forwarded to a sequencer (leader mode)
	LeaderBatches uint64 // ordered batches this node multicast as sequencer
	Promotions    uint64 // leader epochs this node installed (as sequencer or follower)
	Demotions     uint64 // falls from leader mode back to ring rotation
	StabilityLag  uint64 // sequencer's current seq minus its stability horizon
}
