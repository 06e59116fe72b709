package main

import (
	"fmt"
	"runtime"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
)

// codecCost is the harness-timed cost of one codec call.
type codecCost struct {
	perCall time.Duration
	allocB  float64
}

// codecRounds is how many calls each codec measurement averages over.
const codecRounds = 20000

// timeCodec runs fn codecRounds times and returns its mean time and
// heap bytes per call. It runs before any domain exists, so the
// allocation count is the codec's own.
func timeCodec(fn func() error) (codecCost, error) {
	if err := fn(); err != nil { // warm pools and caches
		return codecCost{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < codecRounds; i++ {
		if err := fn(); err != nil {
			return codecCost{}, err
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return codecCost{
		perCall: el / codecRounds,
		allocB:  float64(after.TotalAlloc-before.TotalAlloc) / codecRounds,
	}, nil
}

// Typed sinks keep codec results alive so the compiler cannot drop the
// calls, without boxing them into an allocation of their own.
var (
	sinkRequest giop.Request
	sinkFrame   []byte
)

// codecCosts times the gateway's IIOP edge on the workload's own frames:
// DecodeRequest on the request a client sends, and EncodeReply plus
// Marshal on the reply it gets back.
func codecCosts(op string, args, result []byte, clientCtx bool) (decode, encode codecCost, err error) {
	req := giop.Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte(serverKey), Operation: op, Args: args}
	if clientCtx {
		req.ServiceContexts = []giop.ServiceContext{{ID: giop.FTClientContextID, Data: make([]byte, 16)}}
	}
	msg, err := giop.EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		return decode, encode, err
	}
	frame, err := giop.Unmarshal(giop.Marshal(msg))
	if err != nil {
		return decode, encode, err
	}
	decode, err = timeCodec(func() error {
		r, err := giop.DecodeRequest(frame)
		sinkRequest = r
		return err
	})
	if err != nil {
		return decode, encode, fmt.Errorf("decode request: %w", err)
	}
	rep := giop.Reply{RequestID: 7, Status: giop.ReplyNoException, Result: result}
	encode, err = timeCodec(func() error {
		m, err := giop.EncodeReply(cdr.BigEndian, rep)
		sinkFrame = giop.Marshal(m)
		return err
	})
	if err != nil {
		return decode, encode, fmt.Errorf("encode reply: %w", err)
	}
	return decode, encode, nil
}
