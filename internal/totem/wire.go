package totem

import (
	"fmt"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// Wire message kinds.
const (
	kindRegular byte = 1
	kindToken   byte = 2
	kindJoin    byte = 3
	kindPacked  byte = 4
	kindForward byte = 5 // leader mode: payloads forwarded to the sequencer
	kindBatch   byte = 6 // leader mode: an ordered batch from the sequencer
	kindAck     byte = 7 // leader mode: a follower's stability report
	kindPromote byte = 8 // leader mode: sequencer installation / heartbeat
)

// regularMsg is a sequenced application broadcast (possibly a
// retransmission, which is byte-identical except for the ring id being
// restamped to the current configuration).
//
// When Parts is non-nil the message is a packed broadcast: several
// application payloads sharing one sequence number and one datagram, as
// in the original Totem, where the token holder fills each packet with
// as many queued messages as fit. Packed messages occupy one buffer
// slot and one retransmission unit; they are unpacked
// only at delivery, where each part becomes its own Delivery with a
// sub-index. Payload is unused when Parts is set.
type regularMsg struct {
	RingID  uint64
	Seq     uint64
	Sender  memnet.NodeID
	Payload []byte
	Parts   [][]byte
}

// token is the circulating ring token. Tokens are broadcast rather than
// unicast so every node (including nodes outside the ring) can use them
// for liveness and partition-merge detection; Succ names the one member
// that actually processes this token.
type token struct {
	RingID  uint64
	TokenID uint64 // monotonically increasing per ring; detects stale duplicates
	Seq     uint64 // highest sequence number assigned so far
	// Aru accumulates the minimum all-received-up-to value over the
	// current rotation: every node folds its own watermark in with min.
	Aru uint64
	// Stable is the confirmed global watermark: the Aru of the last
	// completed rotation, published by the leader. Every member is known
	// to have received all messages with seq <= Stable, so they may be
	// garbage-collected and their retransmission requests dropped.
	Stable uint64
	Succ   memnet.NodeID // the member this token is addressed to
	Rtr    []rtrEntry    // outstanding retransmission requests
	Skip   []uint64      // sequence numbers declared unrecoverable
}

// rtrEntry is one retransmission request with its rotation age.
type rtrEntry struct {
	Seq uint64
	Age uint32
}

// joinMsg is a membership-recovery message.
type joinMsg struct {
	Sender  memnet.NodeID
	Alive   []memnet.NodeID
	RingID  uint64 // proposed new ring id
	Highest uint64 // sender's highest received sequence number
	Aru     uint64 // sender's contiguous received watermark
}

func encodeRegular(m regularMsg) []byte {
	if len(m.Parts) > 0 {
		size := 32 + len(m.Sender)
		for _, p := range m.Parts {
			size += 8 + len(p)
		}
		w := cdr.NewWriterCap(cdr.BigEndian, size)
		w.WriteOctet(kindPacked)
		w.WriteULongLong(m.RingID)
		w.WriteULongLong(m.Seq)
		w.WriteString(string(m.Sender))
		w.WriteULong(uint32(len(m.Parts)))
		for _, p := range m.Parts {
			w.WriteOctetSeq(p)
		}
		return w.Bytes()
	}
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(m.Sender)+len(m.Payload))
	w.WriteOctet(kindRegular)
	w.WriteULongLong(m.RingID)
	w.WriteULongLong(m.Seq)
	w.WriteString(string(m.Sender))
	w.WriteOctetSeq(m.Payload)
	return w.Bytes()
}

func decodeRegular(r *cdr.Reader) (regularMsg, error) {
	var m regularMsg
	m.RingID = r.ReadULongLong()
	m.Seq = r.ReadULongLong()
	m.Sender = memnet.NodeID(r.ReadString())
	payload := r.ReadOctetSeq()
	if err := r.Err(); err != nil {
		return regularMsg{}, fmt.Errorf("totem: decode regular: %w", err)
	}
	m.Payload = make([]byte, len(payload))
	copy(m.Payload, payload)
	return m, nil
}

// decodePacked parses the packed form: the regular header followed by a
// counted list of payloads.
func decodePacked(r *cdr.Reader) (regularMsg, error) {
	var m regularMsg
	m.RingID = r.ReadULongLong()
	m.Seq = r.ReadULongLong()
	m.Sender = memnet.NodeID(r.ReadString())
	n := r.ReadULong()
	// Each part costs at least its 4-byte length prefix, which bounds a
	// hostile count before any allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return regularMsg{}, fmt.Errorf("totem: decode packed: bad part count %d", n)
	}
	// One arena allocation per datagram instead of one per part: the
	// parts are copied out of the transport buffer into a single backing
	// buffer and delivered as capped subslices of it. Consumers treat
	// delivered payloads as read-only, so sharing the arena is safe; the
	// cap on each subslice keeps an append from bleeding into the next
	// part. The arena is sized at the reader's remainder, a slight
	// overestimate (length prefixes and padding), so it never regrows.
	m.Parts = make([][]byte, 0, n)
	arena := make([]byte, 0, r.Remaining())
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		p := r.ReadOctetSeq()
		off := len(arena)
		arena = append(arena, p...)
		m.Parts = append(m.Parts, arena[off:len(arena):len(arena)])
	}
	if err := r.Err(); err != nil {
		return regularMsg{}, fmt.Errorf("totem: decode packed: %w", err)
	}
	if len(m.Parts) == 0 {
		return regularMsg{}, fmt.Errorf("totem: decode packed: empty pack")
	}
	return m, nil
}

func encodeToken(t token) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(kindToken)
	w.WriteULongLong(t.RingID)
	w.WriteULongLong(t.TokenID)
	w.WriteULongLong(t.Seq)
	w.WriteULongLong(t.Aru)
	w.WriteULongLong(t.Stable)
	w.WriteString(string(t.Succ))
	w.WriteULong(uint32(len(t.Rtr)))
	for _, e := range t.Rtr {
		w.WriteULongLong(e.Seq)
		w.WriteULong(e.Age)
	}
	w.WriteULong(uint32(len(t.Skip)))
	for _, s := range t.Skip {
		w.WriteULongLong(s)
	}
	return w.Bytes()
}

func decodeToken(r *cdr.Reader) (token, error) {
	var t token
	t.RingID = r.ReadULongLong()
	t.TokenID = r.ReadULongLong()
	t.Seq = r.ReadULongLong()
	t.Aru = r.ReadULongLong()
	t.Stable = r.ReadULongLong()
	t.Succ = memnet.NodeID(r.ReadString())
	nRtr := r.ReadULong()
	if r.Err() != nil || int(nRtr) > r.Remaining()/8 {
		// A hostile count must fail the decode, not silently yield an
		// empty retransmission list: the reads after it would continue
		// from the middle of the entries and produce a garbage token.
		return token{}, fmt.Errorf("totem: decode token: bad rtr count %d", nRtr)
	}
	t.Rtr = make([]rtrEntry, 0, nRtr)
	for i := uint32(0); i < nRtr && r.Err() == nil; i++ {
		t.Rtr = append(t.Rtr, rtrEntry{Seq: r.ReadULongLong(), Age: r.ReadULong()})
	}
	nSkip := r.ReadULong()
	if r.Err() != nil || int(nSkip) > r.Remaining()/8 {
		return token{}, fmt.Errorf("totem: decode token: bad skip count %d", nSkip)
	}
	t.Skip = make([]uint64, 0, nSkip)
	for i := uint32(0); i < nSkip && r.Err() == nil; i++ {
		t.Skip = append(t.Skip, r.ReadULongLong())
	}
	if err := r.Err(); err != nil {
		return token{}, fmt.Errorf("totem: decode token: %w", err)
	}
	return t, nil
}

func encodeJoin(j joinMsg) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(kindJoin)
	w.WriteString(string(j.Sender))
	w.WriteULong(uint32(len(j.Alive)))
	for _, id := range j.Alive {
		w.WriteString(string(id))
	}
	w.WriteULongLong(j.RingID)
	w.WriteULongLong(j.Highest)
	w.WriteULongLong(j.Aru)
	return w.Bytes()
}

// forwardMsg carries a follower's queued payloads to the sequencer in
// leader mode. FwdSeq numbers the sender's forwards within the current
// leader epoch, giving the sequencer a per-origin FIFO to order by and a
// way to recognize resent duplicates.
type forwardMsg struct {
	RingID uint64
	Sender memnet.NodeID
	FwdSeq uint64
	Parts  [][]byte
}

// batchMsg is one leader-ordered batch: the packed wire form plus the
// leader header. Each batch orders exactly one forward (Origin,
// OriginFwd), consumes one sequence number, and piggybacks the
// sequencer's current stability horizon so followers garbage-collect
// without a token.
type batchMsg struct {
	RingID    uint64
	Seq       uint64
	Leader    memnet.NodeID
	Origin    memnet.NodeID
	OriginFwd uint64
	Stable    uint64
	Parts     [][]byte
}

// ackMsg is a follower's stability report in leader mode: its contiguous
// received watermark plus retransmission requests for observed gaps. The
// sequencer folds the Aru values into the stability horizon that
// replaces the token-carried aru.
type ackMsg struct {
	RingID uint64
	Sender memnet.NodeID
	Aru    uint64
	Nak    []uint64
}

// promoteMsg installs (and then heartbeats) a sequencer. StartSeq is the
// agreed mode-switch sequence: the last ring-ordered sequence number,
// identical at every node, below which everything was token-ordered and
// above which everything is leader-ordered within this ring.
type promoteMsg struct {
	RingID   uint64
	Leader   memnet.NodeID
	StartSeq uint64
	Stable   uint64
}

func encodeForward(f forwardMsg) []byte {
	size := 40 + len(f.Sender)
	for _, p := range f.Parts {
		size += 8 + len(p)
	}
	w := cdr.NewWriterCap(cdr.BigEndian, size)
	w.WriteOctet(kindForward)
	w.WriteULongLong(f.RingID)
	w.WriteString(string(f.Sender))
	w.WriteULongLong(f.FwdSeq)
	w.WriteULong(uint32(len(f.Parts)))
	for _, p := range f.Parts {
		w.WriteOctetSeq(p)
	}
	return w.Bytes()
}

func decodeForward(r *cdr.Reader) (forwardMsg, error) {
	var f forwardMsg
	f.RingID = r.ReadULongLong()
	f.Sender = memnet.NodeID(r.ReadString())
	f.FwdSeq = r.ReadULongLong()
	n := r.ReadULong()
	// Each part costs at least its 4-byte length prefix, which bounds a
	// hostile count before any allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: bad part count %d", n)
	}
	f.Parts = make([][]byte, 0, n)
	arena := make([]byte, 0, r.Remaining())
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		p := r.ReadOctetSeq()
		off := len(arena)
		arena = append(arena, p...)
		f.Parts = append(f.Parts, arena[off:len(arena):len(arena)])
	}
	if err := r.Err(); err != nil {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: %w", err)
	}
	if len(f.Parts) == 0 {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: empty forward")
	}
	return f, nil
}

func encodeBatch(b batchMsg) []byte {
	size := 64 + len(b.Leader) + len(b.Origin)
	for _, p := range b.Parts {
		size += 8 + len(p)
	}
	w := cdr.NewWriterCap(cdr.BigEndian, size)
	w.WriteOctet(kindBatch)
	w.WriteULongLong(b.RingID)
	w.WriteULongLong(b.Seq)
	w.WriteString(string(b.Leader))
	w.WriteString(string(b.Origin))
	w.WriteULongLong(b.OriginFwd)
	w.WriteULongLong(b.Stable)
	w.WriteULong(uint32(len(b.Parts)))
	for _, p := range b.Parts {
		w.WriteOctetSeq(p)
	}
	return w.Bytes()
}

func decodeBatch(r *cdr.Reader) (batchMsg, error) {
	var b batchMsg
	b.RingID = r.ReadULongLong()
	b.Seq = r.ReadULongLong()
	b.Leader = memnet.NodeID(r.ReadString())
	b.Origin = memnet.NodeID(r.ReadString())
	b.OriginFwd = r.ReadULongLong()
	b.Stable = r.ReadULongLong()
	n := r.ReadULong()
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return batchMsg{}, fmt.Errorf("totem: decode batch: bad part count %d", n)
	}
	// Same one-arena-per-datagram copy as decodePacked: parts are capped
	// subslices of a single backing buffer.
	b.Parts = make([][]byte, 0, n)
	arena := make([]byte, 0, r.Remaining())
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		p := r.ReadOctetSeq()
		off := len(arena)
		arena = append(arena, p...)
		b.Parts = append(b.Parts, arena[off:len(arena):len(arena)])
	}
	if err := r.Err(); err != nil {
		return batchMsg{}, fmt.Errorf("totem: decode batch: %w", err)
	}
	if len(b.Parts) == 0 {
		return batchMsg{}, fmt.Errorf("totem: decode batch: empty batch")
	}
	return b, nil
}

func encodeAck(a ackMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(a.Sender)+8*len(a.Nak))
	w.WriteOctet(kindAck)
	w.WriteULongLong(a.RingID)
	w.WriteString(string(a.Sender))
	w.WriteULongLong(a.Aru)
	w.WriteULong(uint32(len(a.Nak)))
	for _, s := range a.Nak {
		w.WriteULongLong(s)
	}
	return w.Bytes()
}

func decodeAck(r *cdr.Reader) (ackMsg, error) {
	var a ackMsg
	a.RingID = r.ReadULongLong()
	a.Sender = memnet.NodeID(r.ReadString())
	a.Aru = r.ReadULongLong()
	n := r.ReadULong()
	// Each nak costs 8 bytes, which bounds a hostile count before any
	// allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/8 {
		return ackMsg{}, fmt.Errorf("totem: decode ack: bad nak count %d", n)
	}
	if n > 0 {
		a.Nak = make([]uint64, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			a.Nak = append(a.Nak, r.ReadULongLong())
		}
	}
	if err := r.Err(); err != nil {
		return ackMsg{}, fmt.Errorf("totem: decode ack: %w", err)
	}
	return a, nil
}

func encodePromote(p promoteMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(p.Leader))
	w.WriteOctet(kindPromote)
	w.WriteULongLong(p.RingID)
	w.WriteString(string(p.Leader))
	w.WriteULongLong(p.StartSeq)
	w.WriteULongLong(p.Stable)
	return w.Bytes()
}

func decodePromote(r *cdr.Reader) (promoteMsg, error) {
	var p promoteMsg
	p.RingID = r.ReadULongLong()
	p.Leader = memnet.NodeID(r.ReadString())
	p.StartSeq = r.ReadULongLong()
	p.Stable = r.ReadULongLong()
	if err := r.Err(); err != nil {
		return promoteMsg{}, fmt.Errorf("totem: decode promote: %w", err)
	}
	return p, nil
}

func decodeJoin(r *cdr.Reader) (joinMsg, error) {
	var j joinMsg
	j.Sender = memnet.NodeID(r.ReadString())
	n := r.ReadULong()
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return joinMsg{}, fmt.Errorf("totem: decode join: bad alive count %d", n)
	}
	j.Alive = make([]memnet.NodeID, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		j.Alive = append(j.Alive, memnet.NodeID(r.ReadString()))
	}
	j.RingID = r.ReadULongLong()
	j.Highest = r.ReadULongLong()
	j.Aru = r.ReadULongLong()
	if err := r.Err(); err != nil {
		return joinMsg{}, fmt.Errorf("totem: decode join: %w", err)
	}
	return j, nil
}
