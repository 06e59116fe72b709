package totem

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

func decodeFrame(t *testing.T, b []byte, wantKind byte) *cdr.Reader {
	t.Helper()
	r := cdr.NewReader(b, cdr.BigEndian)
	if k := r.ReadOctet(); k != wantKind {
		t.Fatalf("kind = %d, want %d", k, wantKind)
	}
	return r
}

func TestRegularRoundTrip(t *testing.T) {
	m := regularMsg{RingID: 3, Seq: 99, Sender: "n2", Payload: []byte("abc")}
	got, err := decodeRegular(decodeFrame(t, encodeRegular(m), kindRegular))
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 3 || got.Seq != 99 || got.Sender != "n2" || !bytes.Equal(got.Payload, []byte("abc")) {
		t.Fatalf("got %+v", got)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	tok := token{
		RingID:  7,
		TokenID: 1234,
		Seq:     500,
		Aru:     480,
		Stable:  480,
		Succ:    "n3",
		Rtr:     []rtrEntry{{Seq: 481, Age: 2}, {Seq: 483}},
		Skip:    []uint64{460, 470},
	}
	got, err := decodeToken(decodeFrame(t, encodeToken(tok), kindToken))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tok) {
		t.Fatalf("got %+v, want %+v", got, tok)
	}
}

// TestTokenLayout pins the token frame to the field order docs/PROTOCOL.md
// documents: kind, ring id, token id, seq, aru, stable, successor, then
// the counted rtr (seq, age) and skip lists. A hostile rtr count must
// fail the decode instead of reading the lists out of step.
func TestTokenLayout(t *testing.T) {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(kindToken)
	for _, v := range []uint64{7, 1234, 500, 480, 470} {
		w.WriteULongLong(v)
	}
	w.WriteString("n3")
	w.WriteULong(1)
	w.WriteULongLong(481)
	w.WriteULong(2)
	w.WriteULong(1)
	w.WriteULongLong(460)
	tok := token{
		RingID: 7, TokenID: 1234, Seq: 500, Aru: 480, Stable: 470, Succ: "n3",
		Rtr: []rtrEntry{{Seq: 481, Age: 2}}, Skip: []uint64{460},
	}
	if got := encodeToken(tok); !bytes.Equal(got, w.Bytes()) {
		t.Fatalf("encodeToken = %x, want %x", got, w.Bytes())
	}
	got, err := decodeToken(cdrSkipKind(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tok) {
		t.Fatalf("got %+v, want %+v", got, tok)
	}

	h := cdr.NewWriter(cdr.BigEndian)
	h.WriteOctet(kindToken)
	for i := 0; i < 5; i++ {
		h.WriteULongLong(1)
	}
	h.WriteString("n3")
	h.WriteULong(1 << 30)
	if _, err := decodeToken(cdrSkipKind(h.Bytes())); err == nil {
		t.Fatal("hostile rtr count decoded")
	}
}

func TestTokenRoundTripEmptyLists(t *testing.T) {
	tok := token{RingID: 1, TokenID: 1, Succ: "a"}
	got, err := decodeToken(decodeFrame(t, encodeToken(tok), kindToken))
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 1 || got.Succ != "a" || len(got.Rtr) != 0 || len(got.Skip) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	jm := joinMsg{
		Sender:  "n5",
		Alive:   []memnet.NodeID{"n1", "n5", "n9"},
		RingID:  12,
		Highest: 4000,
		Aru:     3999,
	}
	got, err := decodeJoin(decodeFrame(t, encodeJoin(jm), kindJoin))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jm) {
		t.Fatalf("got %+v, want %+v", got, jm)
	}
}

func TestQuickTokenRoundTrip(t *testing.T) {
	f := func(ringID, tokenID, seq, aru uint64, rtrSeqs []uint64, skip []uint64) bool {
		tok := token{RingID: ringID, TokenID: tokenID, Seq: seq, Aru: aru, Stable: aru / 2, Succ: "y"}
		for _, s := range rtrSeqs {
			tok.Rtr = append(tok.Rtr, rtrEntry{Seq: s, Age: uint32(s % 7)})
		}
		tok.Skip = skip
		got, err := decodeToken(cdrSkipKind(encodeToken(tok)))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalizeToken(got), normalizeToken(tok))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardRoundTrip(t *testing.T) {
	fm := forwardMsg{RingID: 5, Sender: "n7", FwdSeq: 42, Parts: [][]byte{[]byte("one"), []byte("two"), {}}}
	got, err := decodeForward(decodeFrame(t, encodeForward(fm), kindForward))
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 5 || got.Sender != "n7" || got.FwdSeq != 42 || len(got.Parts) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range fm.Parts {
		if !bytes.Equal(got.Parts[i], fm.Parts[i]) {
			t.Fatalf("part %d = %q, want %q", i, got.Parts[i], fm.Parts[i])
		}
	}
}

func TestForwardRejectsEmptyAndHostile(t *testing.T) {
	if _, err := decodeForward(cdrSkipKind(encodeForward(forwardMsg{RingID: 1, Sender: "n"}))); err == nil {
		t.Fatal("empty forward decoded")
	}
	// A hostile part count larger than the remaining bytes could carry
	// must be rejected before allocation.
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(kindForward)
	w.WriteULongLong(1)
	w.WriteString("n")
	w.WriteULongLong(1)
	w.WriteULong(1 << 30)
	if _, err := decodeForward(cdrSkipKind(w.Bytes())); err == nil {
		t.Fatal("hostile part count decoded")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	bm := batchMsg{
		RingID: 9, Seq: 1234, Leader: "n0", Origin: "n2", OriginFwd: 17, Stable: 1200,
		Parts: [][]byte{[]byte("payload")},
	}
	got, err := decodeBatch(decodeFrame(t, encodeBatch(bm), kindBatch))
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 9 || got.Seq != 1234 || got.Leader != "n0" || got.Origin != "n2" ||
		got.OriginFwd != 17 || got.Stable != 1200 || len(got.Parts) != 1 || !bytes.Equal(got.Parts[0], bm.Parts[0]) {
		t.Fatalf("got %+v", got)
	}
}

func TestAckRoundTrip(t *testing.T) {
	am := ackMsg{RingID: 2, Sender: "n1", Aru: 800, Nak: []uint64{801, 803}}
	got, err := decodeAck(decodeFrame(t, encodeAck(am), kindAck))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, am) {
		t.Fatalf("got %+v, want %+v", got, am)
	}
	// Empty nak list survives too.
	am2 := ackMsg{RingID: 2, Sender: "n1", Aru: 801}
	got2, err := decodeAck(cdrSkipKind(encodeAck(am2)))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Aru != 801 || len(got2.Nak) != 0 {
		t.Fatalf("got %+v", got2)
	}
}

func TestPromoteRoundTrip(t *testing.T) {
	pm := promoteMsg{RingID: 3, Leader: "n0", StartSeq: 555, Stable: 555}
	got, err := decodePromote(decodeFrame(t, encodePromote(pm), kindPromote))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pm) {
		t.Fatalf("got %+v, want %+v", got, pm)
	}
}

func TestQuickForwardBatchRoundTrip(t *testing.T) {
	f := func(ringID, fwd uint64, payloads [][]byte) bool {
		if len(payloads) == 0 {
			payloads = [][]byte{{}}
		}
		fm := forwardMsg{RingID: ringID, Sender: "q", FwdSeq: fwd, Parts: payloads}
		gotF, err := decodeForward(cdrSkipKind(encodeForward(fm)))
		if err != nil || gotF.FwdSeq != fwd || len(gotF.Parts) != len(payloads) {
			return false
		}
		bm := batchMsg{RingID: ringID, Seq: fwd + 1, Leader: "l", Origin: "q", OriginFwd: fwd, Stable: fwd / 2, Parts: payloads}
		gotB, err := decodeBatch(cdrSkipKind(encodeBatch(bm)))
		if err != nil || gotB.Seq != fwd+1 || gotB.Origin != "q" || len(gotB.Parts) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(gotF.Parts[i], payloads[i]) || !bytes.Equal(gotB.Parts[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := cdr.NewReader(data, cdr.BigEndian)
		switch r.ReadOctet() {
		case kindRegular:
			_, _ = decodeRegular(r)
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
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedLeaderFramesRejected slices every prefix of valid
// leader-mode frames through the decoders: truncation must error, never
// panic or return success.
func TestTruncatedLeaderFramesRejected(t *testing.T) {
	frames := [][]byte{
		encodeForward(forwardMsg{RingID: 1, Sender: "n1", FwdSeq: 2, Parts: [][]byte{[]byte("abc"), []byte("defg")}}),
		encodeBatch(batchMsg{RingID: 1, Seq: 3, Leader: "n0", Origin: "n1", OriginFwd: 2, Stable: 1, Parts: [][]byte{[]byte("abc")}}),
		encodeAck(ackMsg{RingID: 1, Sender: "n1", Aru: 3, Nak: []uint64{4}}),
		encodePromote(promoteMsg{RingID: 1, Leader: "n0", StartSeq: 3, Stable: 3}),
	}
	for _, frame := range frames {
		kind := frame[0]
		for cut := 1; cut < len(frame); cut++ {
			r := cdr.NewReader(frame[:cut], cdr.BigEndian)
			var err error
			switch r.ReadOctet() {
			case kindForward:
				_, err = decodeForward(r)
			case kindBatch:
				_, err = decodeBatch(r)
			case kindAck:
				_, err = decodeAck(r)
			case kindPromote:
				_, err = decodePromote(r)
			}
			if err == nil && cut < len(frame) {
				t.Fatalf("kind %d truncated at %d/%d decoded without error", kind, cut, len(frame))
			}
		}
	}
}

func cdrSkipKind(b []byte) *cdr.Reader {
	r := cdr.NewReader(b, cdr.BigEndian)
	r.ReadOctet()
	return r
}

// normalizeToken maps nil and empty slices to a canonical form for
// DeepEqual comparison.
func normalizeToken(t token) token {
	if len(t.Rtr) == 0 {
		t.Rtr = nil
	}
	if len(t.Skip) == 0 {
		t.Skip = nil
	}
	return t
}
