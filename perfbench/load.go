package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/experiments"
	"eternalgw/internal/orb"
)

// windows is how many equal parts the measured phase is split into;
// end-to-end figures are taken over the parts (see endToEndMetrics).
const windows = 15

// window is one part of the measured phase. Calls belong to the window
// they started (closed loop) or were due (open loop) in, except that
// completed counts them by when they completed.
type window struct {
	ok int
	// lat holds the latencies of the window's successful calls that no
	// fault disturbed.
	lat []time.Duration
	use usage
	// completed counts the calls that completed inside the window, the
	// first and last at first and last.
	completed   int
	first, last time.Duration
}

// rate is the window's completion rate: completions after the first,
// over the time from the first to the last. Unlike a count over the
// window's length it is not quantized by a fixed-rate open loop.
func (w window) rate() float64 {
	if w.completed < 2 || w.last <= w.first {
		return 0
	}
	return float64(w.completed-1) / (w.last - w.first).Seconds()
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	attempted, failed int
	span              time.Duration // length of each window
	win               []window
	lat               []time.Duration // every successful measured call
	late              []time.Duration // open loop: how late each request was sent
	use               usage           // the whole measured phase
	counters          map[string]uint64
	reqs              []request // open loop, warm-up included, for the audit
	faults            []fault
	// liveReplicas is how many replicas executed the audit's probe.
	liveReplicas int
	// sequencer is the leader-ordered ring's sequencer after the load.
	sequencer string
	problems  []string
}

func (p *phase) ok() int { return p.attempted - p.failed }

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// Closed-loop callers check the stage before each call: calls started
// during warm-up are not measured, and no call starts after stop.
const (
	stageWarmup int32 = iota
	stageMeasure
	stageStop
)

// echoPayloads derives each caller's payloads from the seed: a few
// distinct byte strings per caller, pre-encoded as echo arguments.
func echoPayloads(seed int64, callers, size int) (args, want [][][]byte) {
	const perCaller = 4
	rng := rand.New(rand.NewSource(seed))
	args = make([][][]byte, callers)
	want = make([][][]byte, callers)
	for c := range args {
		for k := 0; k < perCaller; k++ {
			p := make([]byte, size)
			rng.Read(p)
			want[c] = append(want[c], p)
			args[c] = append(args[c], experiments.OctetSeqArg(p))
		}
	}
	return args, want
}

// call is one closed-loop call that started while measuring; at is its
// start, from the start of measurement.
type call struct {
	at, lat time.Duration
	ok      bool
}

type callerResult struct {
	calls    []call
	mismatch int
	firstErr error
}

// closedLoop runs the echo callers for warm-up plus dur and measures the
// second part. Every reply must be byte-equal to the payload sent.
func (b *bench) closedLoop(seed int64, dur time.Duration) *phase {
	args, want := echoPayloads(seed, b.w.callers, b.w.payload)
	results := make([]callerResult, b.w.callers)
	var stage atomic.Int32
	var measureStart atomic.Int64 // unix nanoseconds
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := b.conns[i%len(b.conns)]
			r := &results[i]
			for j := 0; ; j++ {
				st := stage.Load()
				if st == stageStop {
					return
				}
				k := j % len(args[i])
				start := time.Now()
				rd, err := conn.Call([]byte(serverKey), "echo", args[i][k], orb.InvokeOptions{})
				el := time.Since(start)
				ok := err == nil
				if ok {
					got := rd.ReadOctetSeq()
					if rd.Err() != nil || !bytes.Equal(got, want[i][k]) {
						r.mismatch++
						ok = false
					}
				} else if r.firstErr == nil {
					r.firstErr = err
				}
				if st == stageMeasure {
					at := start.Sub(time.Unix(0, measureStart.Load()))
					r.calls = append(r.calls, call{at: at, lat: el, ok: ok})
				}
				if err != nil {
					time.Sleep(time.Millisecond) // a broken connection fails fast
				}
			}
		}(i)
	}

	p := newPhase(dur)
	time.Sleep(warmup)
	before := b.collect()
	marks := []usage{readUsage()}
	start := time.Now()
	measureStart.Store(start.UnixNano())
	stage.Store(stageMeasure)
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * p.span)))
		if w == windows {
			stage.Store(stageStop)
			wg.Wait()
		}
		marks = append(marks, readUsage())
	}
	p.counters = delta(before, b.collect())
	p.setUsage(marks)
	for i := range results {
		r := &results[i]
		for _, c := range r.calls {
			p.record(c.at, c.lat, c.ok, true)
		}
		if r.mismatch > 0 {
			p.problem("caller %d: %d echo replies differ from the payload sent", i, r.mismatch)
		}
		if r.firstErr != nil {
			p.problem("caller %d: call failed: %v", i, r.firstErr)
		}
	}
	return p
}

// request is one open-loop invocation. Times are offsets from the
// generator's start.
type request struct {
	due, sent, done time.Duration
	marker          uint64 // appends: the unique 8 bytes appended
	value           int64  // the ops count an append returned or a read saw
	client          int
	write, ok       bool
	measured        bool // due after warm-up
	err             error
}

// maxOutstanding bounds the open loop's in-flight requests: at openRate
// it covers an 8 s outage before the generator itself would stall, and
// a stall shows in loadgen.late_p99_ms.
const maxOutstanding = 12000

// openLoop sends requests at the workload's fixed rate for warm-up plus
// dur, whatever the domain is doing, and runs the seeded fault schedule
// over the measured part. Latency runs from each request's due time.
func (b *bench) openLoop(seed int64, dur time.Duration) *phase {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / b.w.rate)
	reqs := make([]request, int((warmup+dur)/interval))
	tag := uint64(rng.Uint32()) << 32
	firstMeasured := len(reqs)
	for k := range reqs {
		r := &reqs[k]
		r.due = time.Duration(k) * interval
		r.client = rng.Intn(len(b.clients))
		r.write = rng.Intn(2) == 0
		r.marker = tag | uint64(k)
		r.measured = r.due >= warmup
		if r.measured && k < firstMeasured {
			firstMeasured = k
		}
	}
	faultRNG := rand.New(rand.NewSource(seed ^ 0x5eed_fa17))

	p := newPhase(dur)
	p.reqs = reqs
	base := time.Now()
	faultsDone := make(chan []fault, 1)
	go func() { faultsDone <- b.injectFaults(faultRNG, base, warmup, warmup+dur) }()

	var (
		before snapshot
		marks  []usage
		wg     sync.WaitGroup
		sem    = make(chan struct{}, maxOutstanding)
	)
	for k := range reqs {
		r := &reqs[k]
		if k == firstMeasured {
			before = b.collect()
		}
		// A usage mark opens each window, taken as its first request is
		// due.
		if r.measured && len(marks) < windows && r.due-warmup >= time.Duration(len(marks))*p.span {
			marks = append(marks, readUsage())
		}
		if d := time.Until(base.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		r.sent = time.Since(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.issue(r)
			r.done = time.Since(base)
			<-sem
		}()
	}
	wg.Wait()
	p.faults = <-faultsDone
	p.setUsage(append(marks, readUsage()))
	p.counters = delta(before, b.collect())
	for k := range reqs {
		r := &reqs[k]
		if r.measured {
			p.late = append(p.late, r.sent-r.due)
			p.record(r.due-warmup, r.done-r.due, r.ok, !disturbed(p.faults, r.due))
		}
	}
	return p
}

func newPhase(dur time.Duration) *phase {
	return &phase{span: dur / windows, win: make([]window, windows)}
}

// record counts one measured call starting (or due) at offset at; calm
// is false for a call a fault disturbed.
func (p *phase) record(at, lat time.Duration, ok, calm bool) {
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	w := min(int(at/p.span), windows-1)
	p.win[w].ok++
	if calm {
		p.win[w].lat = append(p.win[w].lat, lat)
	}
	p.lat = append(p.lat, lat)
	done := at + lat
	if c := int(done / p.span); c < windows {
		cw := &p.win[c]
		if cw.completed == 0 || done < cw.first {
			cw.first = done
		}
		cw.last = max(cw.last, done)
		cw.completed++
	}
}

// setUsage takes the usage marks at the window boundaries.
func (p *phase) setUsage(marks []usage) {
	for w := range p.win {
		p.win[w].use = marks[w+1].since(marks[w])
	}
	p.use = marks[windows].since(marks[0])
}

// issue performs one open-loop request through its thin client. Only the
// thin client's own failover retries; a returned error is a failed call.
func (b *bench) issue(r *request) {
	c := b.clients[r.client]
	op, arg := "ops", []byte(nil)
	if r.write {
		var m [8]byte
		binary.BigEndian.PutUint64(m[:], r.marker)
		op, arg = "append", experiments.OctetSeqArg(m[:])
	}
	rd, err := c.Call(op, arg)
	if err != nil {
		r.err = err
		return
	}
	r.value = rd.ReadLongLong()
	r.err = rd.Err()
	r.ok = r.err == nil
}
