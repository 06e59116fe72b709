package totem

import (
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// FuzzWireDecoders feeds arbitrary bytes through the ring's wire
// decoders.
func FuzzWireDecoders(f *testing.F) {
	f.Add(encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Payload: []byte("p")}))
	f.Add(encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Parts: [][]byte{[]byte("a"), []byte("b")}}))
	f.Add(encodeToken(token{RingID: 1, TokenID: 2, Seq: 3, Succ: "n", Rtr: []rtrEntry{{Seq: 1}}}))
	f.Add(encodeToken(token{RingID: 1, TokenID: 2, Seq: 9, Aru: 4, Stable: 3, Succ: "n", Rtr: []rtrEntry{{Seq: 5, Age: 2}}, Skip: []uint64{6}}))
	f.Add(encodeJoin(joinMsg{Sender: "n", Alive: []memnet.NodeID{"n"}, RingID: 1, Highest: 2, Aru: 1}))
	f.Add(encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 2, Parts: [][]byte{[]byte("p")}}))
	f.Add(encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 3, Parts: [][]byte{[]byte("a"), []byte("bb")}}))
	f.Add(encodeBatch(batchMsg{RingID: 1, Seq: 9, Leader: "l", Origin: "n", OriginFwd: 2, Stable: 5, Parts: [][]byte{[]byte("p")}}))
	f.Add(encodeAck(ackMsg{RingID: 1, Sender: "n", Aru: 7, Nak: []uint64{8, 9}}))
	f.Add(encodePromote(promoteMsg{RingID: 1, Leader: "l", StartSeq: 6, Stable: 6}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := cdr.NewReader(data, cdr.BigEndian)
		switch r.ReadOctet() {
		case kindRegular:
			_, _ = decodeRegular(r)
		case kindPacked:
			_, _ = decodePacked(r)
		case kindToken:
			_, _ = decodeToken(r)
		case kindJoin:
			_, _ = decodeJoin(r)
		case kindForward:
			_, _ = decodeForward(r)
		case kindBatch:
			_, _ = decodeBatch(r)
		case kindAck:
			_, _ = decodeAck(r)
		case kindPromote:
			_, _ = decodePromote(r)
		}
	})
}
