// Package core implements the paper's primary contribution: gateways for
// accessing fault tolerance domains.
//
// A gateway is the entry point through which unreplicated IIOP clients
// reach the replicated objects of a fault tolerance domain (paper
// section 3). On its external side it accepts plain TCP connections and
// speaks GIOP/IIOP, appearing to clients to be the remote server object;
// on its internal side it is a (client-only) member of the gateway
// object group, translating IIOP requests into totally-ordered
// multicasts addressed to server object groups and returning a single
// response per request, with the duplicate responses of the server
// replicas suppressed by response identifier.
//
// A gateway is not a CORBA object: it is part of the fault tolerance
// infrastructure. Several gateways form a redundant gateway group
// (paper section 3.5): each records the requests and responses flowing
// through any of them, so a client that fails over to another gateway
// and reissues its pending invocations receives its responses without
// the operations being executed twice.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/metrics"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
)

// repoIDTransient is the CORBA system exception the gateway raises when
// admission control sheds a request: the standard "try again later"
// exception, carrying the shed reason as its minor code
// (admission.Verdict.Minor; see docs/OPERATIONS.md for the contract).
const repoIDTransient = "IDL:omg.org/CORBA/TRANSIENT:1.0"

// Minor codes for the system exceptions the gateway itself fabricates
// (shed replies carry admission.Verdict.Minor instead). Documented in
// docs/OPERATIONS.md; the completedno analyzer rejects bare literals
// here so every code stays in that table.
const (
	// minorUnknownObjectKey: OBJECT_NOT_EXIST — the request's object key
	// matches no replicated group at this gateway.
	minorUnknownObjectKey uint32 = 0
	// minorInvokeFailed: COMM_FAILURE — conveying the request through
	// the fault tolerance domain failed or timed out.
	minorInvokeFailed uint32 = 0
)

// replyCacheSize bounds the section 3.5 record store: roughly this many
// recorded requests and as many recorded responses, used to answer
// reissued invocations after a gateway failover.
const replyCacheSize = 8192

// Errors reported by the gateway.
var ErrClosed = errors.New("gateway: closed")

// Config parameterizes a Gateway.
type Config struct {
	// RM is this node's replication mechanisms; the gateway must already
	// be (or become) a member of Group through it.
	RM *replication.Mechanisms
	// Group is the gateway object group identifier.
	Group replication.GroupID
	// ListenAddr is the external TCP endpoint ("host:port", empty for
	// 127.0.0.1:0).
	ListenAddr string
	// Log receives diagnostics (tagged component=gateway); nil discards
	// them.
	Log *obs.Logger
	// Metrics, when set, receives the gateway's counters, connection
	// gauges and a request-latency histogram for the /metrics endpoint.
	Metrics *obs.Registry
	// Tracer, when set, records invocation span events on the gateway
	// hops (accept, decode, cache suppression, reply write). Nil — the
	// default — is the disabled tracer: the datapath pays one nil check.
	Tracer *obs.Tracer
	// Admission, when set, is this gateway's admission controller:
	// connection caps with accept-loop backpressure, per-client rate
	// limiting and in-flight windows with TRANSIENT shedding, and the
	// domain-backpressure breaker. Nil admits everything. The controller
	// must be private to this gateway (its connection accounting is
	// per-listener).
	Admission *admission.Controller
}

// Stats snapshots gateway counters.
type Stats struct {
	ConnectionsAccepted   uint64
	RequestsReceived      uint64
	RequestsForwarded     uint64
	RepliesReturned       uint64
	AnsweredFromCache     uint64 // reissued invocations answered from the gateway-group record
	ReinvocationsDetected uint64 // requests seen before by the gateway group
	RequestsAbandoned     uint64 // received but never answered (gateway or domain failure)
	Exceptions            uint64 // system exceptions returned to clients
	ClientsDeparted       uint64 // departed-client notifications processed (state deleted)
	RequestsShed          uint64 // requests refused by admission control (TRANSIENT returned)
	ConnectionsShed       uint64 // connections refused by admission control (closed at accept)
	DeparturesDropped     uint64 // departed-client notifications dropped by the bounded overflow queue
}

// cacheKey identifies a recorded operation: the routing triple of paper
// section 3.2 (server group, TCP client id) plus the operation
// identifier.
type cacheKey struct {
	group    replication.GroupID
	clientID uint64
	op       replication.OperationID
}

// departQueueMax bounds the departed-client overflow queue: departures
// beyond it are dropped (and counted) rather than spawning goroutines.
// Dropping one only delays cleanup — the per-client records age out of
// the bounded record caches regardless.
const departQueueMax = 4096

// Gateway bridges external IIOP clients into a fault tolerance domain.
type Gateway struct {
	cfg    Config
	rm     *replication.Mechanisms
	ln     net.Listener
	log    *obs.Logger
	tracer *obs.Tracer
	adm    *admission.Controller
	// reqHist, non-nil only when cfg.Metrics is set, records round-trip
	// latency of response-expected requests over a sliding window.
	reqHist *metrics.Histogram

	// draining is set by Drain: new requests are shed with TRANSIENT and
	// the accept loop stops, while in-flight invocations bleed out.
	draining atomic.Bool
	// inflight counts requests currently being conveyed through the
	// domain; Drain waits for it to reach zero. Tracked by the gateway
	// itself so drain works with admission disabled too.
	inflight atomic.Int64
	// lnOnce/lnErr let Drain and Close both close the listener.
	lnOnce sync.Once
	lnErr  error
	// acceptStop unblocks an accept loop waiting on a connection slot;
	// closed by both Drain and Close.
	acceptStop     chan struct{}
	acceptStopOnce sync.Once

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// counters assigns TCP client identifiers per destination server
	// group, as in paper section 3.2.
	counters map[replication.GroupID]uint64
	// records is the section 3.5 gateway-group record: request keys seen
	// (reinvocation detection) and responses (answering reissues),
	// sharded by client identifier so the datapath does not serialize
	// behind mu.
	records *recordStore
	// instanceNonce distinguishes this gateway instance's counter-
	// assigned client identifiers from any other gateway's.
	instanceNonce uint64

	// The departure overflow queue carries departed-client notifications
	// from the replication event loop (whose observer must not block) to
	// the departure worker. It is bounded at departQueueMax; notifications
	// beyond that are dropped and counted rather than spawning goroutines.
	depMu     sync.Mutex
	depQueue  []uint64
	depNotify chan struct{}
	quit      chan struct{}

	wg sync.WaitGroup

	connectionsAccepted   atomic.Uint64
	requestsReceived      atomic.Uint64
	requestsForwarded     atomic.Uint64
	repliesReturned       atomic.Uint64
	answeredFromCache     atomic.Uint64
	reinvocationsDetected atomic.Uint64
	requestsAbandoned     atomic.Uint64
	exceptions            atomic.Uint64
	clientsDeparted       atomic.Uint64
	requestsShed          atomic.Uint64
	connectionsShed       atomic.Uint64
	departuresDropped     atomic.Uint64
}

// New creates a gateway, joins the gateway group as a client-only member
// and starts accepting external connections. The caller should wait for
// the group membership (rm.WaitSynced) before handing the address out.
func New(cfg Config) (*Gateway, error) {
	if cfg.RM == nil {
		return nil, errors.New("gateway: config needs replication mechanisms")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("gateway: generating instance nonce: %w", err)
	}
	g := &Gateway{
		cfg:           cfg,
		rm:            cfg.RM,
		ln:            ln,
		log:           cfg.Log.With("gateway"),
		tracer:        cfg.Tracer,
		adm:           cfg.Admission,
		conns:         make(map[net.Conn]struct{}),
		counters:      make(map[replication.GroupID]uint64),
		records:       newRecordStore(replyCacheSize),
		depNotify:     make(chan struct{}, 1),
		acceptStop:    make(chan struct{}),
		quit:          make(chan struct{}),
		instanceNonce: binary.BigEndian.Uint64(nonce[:]) &^ counterIDBit,
	}
	g.registerMetrics(cfg.Metrics)
	// Join the gateway group (idempotent error if the embedding code
	// joined already) and observe the group's traffic to build the
	// request/response record.
	if err := g.rm.JoinGroup(cfg.Group, nil); err != nil && !errors.Is(err, replication.ErrAlreadyMember) {
		_ = ln.Close()
		return nil, err
	}
	g.rm.SetObserver(cfg.Group, g.observe)
	g.wg.Add(2)
	go g.acceptLoop()
	go g.departureLoop()
	return g, nil
}

// Addr returns the gateway's external TCP address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// registerMetrics publishes the gateway's counters, gauges and a
// request-latency histogram on the registry, labelled with the external
// listen address so several gateways in one process stay
// distinguishable. The registry reads only at scrape time; the datapath
// keeps its bare atomic increments.
func (g *Gateway) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"gateway": g.ln.Addr().String()}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_gateway_connections_accepted_total", "External TCP connections accepted.", g.connectionsAccepted.Load},
		{"eternalgw_gateway_requests_received_total", "GIOP requests received from external clients.", g.requestsReceived.Load},
		{"eternalgw_gateway_requests_forwarded_total", "Requests conveyed into the fault tolerance domain.", g.requestsForwarded.Load},
		{"eternalgw_gateway_replies_returned_total", "Replies written back to external clients.", g.repliesReturned.Load},
		{"eternalgw_gateway_answered_from_cache_total", "Reissued invocations answered from the gateway-group record.", g.answeredFromCache.Load},
		{"eternalgw_gateway_reinvocations_detected_total", "Requests seen before by the gateway group.", g.reinvocationsDetected.Load},
		{"eternalgw_gateway_requests_abandoned_total", "Requests received but never answered.", g.requestsAbandoned.Load},
		{"eternalgw_gateway_exceptions_total", "System exceptions returned to external clients.", g.exceptions.Load},
		{"eternalgw_gateway_clients_departed_total", "Departed-client notifications processed.", g.clientsDeparted.Load},
		{"eternalgw_gateway_requests_shed_total", "Requests refused by admission control (TRANSIENT returned).", g.requestsShed.Load},
		{"eternalgw_gateway_connections_shed_total", "Connections refused by admission control (closed at accept).", g.connectionsShed.Load},
		{"eternalgw_gateway_departures_dropped_total", "Departed-client notifications dropped by the bounded overflow queue.", g.departuresDropped.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_gateway_inflight_requests", "Requests currently being conveyed through the domain.", lbl,
		func() float64 { return float64(g.inflight.Load()) })
	reg.GaugeFunc("eternalgw_gateway_draining", "1 while the gateway is draining.", lbl, func() float64 {
		if g.draining.Load() {
			return 1
		}
		return 0
	})
	if g.adm != nil {
		for _, c := range []struct {
			name, help string
			fn         func() uint64
		}{
			{"eternalgw_gateway_admission_admitted_total", "Requests admitted by the admission controller.", func() uint64 { return g.adm.Stats().Admitted }},
			{"eternalgw_gateway_admission_shed_rate_total", "Requests shed by the per-client token bucket.", func() uint64 { return g.adm.Stats().ShedRate }},
			{"eternalgw_gateway_admission_shed_window_total", "Requests shed by the in-flight window.", func() uint64 { return g.adm.Stats().ShedWindow }},
			{"eternalgw_gateway_admission_shed_draining_total", "Requests shed while draining.", func() uint64 { return g.adm.Stats().ShedDraining }},
			{"eternalgw_gateway_admission_conns_over_cap_total", "Connections shed by the per-client connection cap.", func() uint64 { return g.adm.Stats().ConnsOverCap }},
			{"eternalgw_gateway_admission_conns_shed_breaker_total", "Connections shed by the open backpressure breaker.", func() uint64 { return g.adm.Stats().ConnsShedBreaker }},
			{"eternalgw_gateway_admission_breaker_trips_total", "Times the backpressure breaker opened.", func() uint64 { return g.adm.Stats().BreakerTrips }},
		} {
			reg.CounterFunc(c.name, c.help, lbl, c.fn)
		}
		reg.GaugeFunc("eternalgw_gateway_admission_breaker_open", "1 while the backpressure breaker is open.", lbl, func() float64 {
			if g.adm.Stats().BreakerOpen {
				return 1
			}
			return 0
		})
	}
	reg.GaugeFunc("eternalgw_gateway_open_connections", "Currently connected external clients.", lbl, func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(len(g.conns))
	})
	reg.GaugeFunc("eternalgw_gateway_recorded_requests", "Request records held for reinvocation detection.", lbl,
		func() float64 { return float64(g.RecordedRequests()) })
	reg.GaugeFunc("eternalgw_gateway_recorded_replies", "Responses held in the gateway-group record.", lbl,
		func() float64 { return float64(g.RecordedReplies()) })
	g.reqHist = metrics.NewBounded(8192)
	reg.Histogram("eternalgw_gateway_request_duration_seconds", "Round-trip latency of response-expected requests.", lbl, g.reqHist)
}

// observeLatency records one round trip when the latency histogram is
// enabled (arrived is zero when it is not).
func (g *Gateway) observeLatency(arrived time.Time) {
	if g.reqHist != nil && !arrived.IsZero() {
		g.reqHist.Record(time.Since(arrived))
	}
}

// Host and Port of the external endpoint, for IOR construction.
func (g *Gateway) HostPort() (string, uint16) {
	addr, ok := g.ln.Addr().(*net.TCPAddr)
	if !ok {
		return "127.0.0.1", 0
	}
	return addr.IP.String(), uint16(addr.Port)
}

// Stats snapshots the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		ConnectionsAccepted:   g.connectionsAccepted.Load(),
		RequestsReceived:      g.requestsReceived.Load(),
		RequestsForwarded:     g.requestsForwarded.Load(),
		RepliesReturned:       g.repliesReturned.Load(),
		AnsweredFromCache:     g.answeredFromCache.Load(),
		ReinvocationsDetected: g.reinvocationsDetected.Load(),
		RequestsAbandoned:     g.requestsAbandoned.Load(),
		Exceptions:            g.exceptions.Load(),
		ClientsDeparted:       g.clientsDeparted.Load(),
		RequestsShed:          g.requestsShed.Load(),
		ConnectionsShed:       g.connectionsShed.Load(),
		DeparturesDropped:     g.departuresDropped.Load(),
	}
}

// Admission exposes the gateway's admission controller (nil when
// admission is disabled), for status pages and tests.
func (g *Gateway) Admission() *admission.Controller { return g.adm }

// InFlight reports the number of requests currently being conveyed
// through the domain on behalf of this gateway's clients.
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// closeListener closes the external listener exactly once (Drain and
// Close both need to).
func (g *Gateway) closeListener() error {
	g.lnOnce.Do(func() { g.lnErr = g.ln.Close() })
	return g.lnErr
}

// stopAccepting wakes an accept loop blocked on a connection slot.
func (g *Gateway) stopAccepting() {
	g.acceptStopOnce.Do(func() { close(g.acceptStop) })
}

// Close stops accepting and severs all client connections. It models the
// gateway process failure of paper section 3.4 as well as orderly
// shutdown: clients with outstanding invocations observe a broken
// connection and never learn their requests' fate.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	close(g.quit)
	g.stopAccepting()
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()

	err := g.closeListener()
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
	return err
}

// Shutdown closes the gateway gracefully: connected clients receive a
// GIOP CloseConnection before their sockets are severed. Close (without
// the notification) doubles as the abrupt process-failure model used in
// the section 3.4/3.5 experiments.
func (g *Gateway) Shutdown() error {
	g.mu.Lock()
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	for _, c := range conns {
		_ = giop.WriteMessage(c, giop.EncodeCloseConnection(cdr.BigEndian))
	}
	return g.Close()
}

// Drain retires the gateway gracefully under a deadline: stop accepting
// connections and admitting requests, bleed the in-flight invocations to
// completion (so clients receive the responses they are owed), then hand
// the remaining clients to the redundant gateway group with a GIOP
// CloseConnection. Their enhanced ORBs fail over to the next profile and
// reissue any still-pending invocations; the section 3.5 gateway-group
// record answers reissues without re-executing operations, which is what
// makes the handoff safe.
//
// Requests arriving while draining are shed with a TRANSIENT system
// exception (minor code admission.ShedDraining), so even plain clients
// observe a clean retryable failure rather than a hang.
func (g *Gateway) Drain(timeout time.Duration) error {
	g.draining.Store(true)
	g.adm.BeginDrain()
	g.stopAccepting()
	_ = g.closeListener()
	deadline := time.Now().Add(timeout)
	for g.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := g.inflight.Load(); n > 0 {
		g.log.Warnf("drain: %d invocations still in flight at deadline", n)
	}
	return g.Shutdown()
}

// Draining reports whether Drain has been initiated.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// hostOf extracts the client address (host without port) used for the
// per-client connection cap.
func hostOf(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		// Accept-loop backpressure: at the connection cap the gateway
		// stops accepting; further clients wait in the kernel listen
		// backlog instead of consuming gateway state.
		if !g.adm.ReserveConn(g.acceptStop) {
			return
		}
		conn, err := g.ln.Accept()
		if err != nil {
			g.adm.UnreserveConn()
			return
		}
		host := hostOf(conn)
		if v := g.adm.AdmitConn(host); v != admission.Admit {
			// The shed connection gets a CloseConnection notification —
			// the standard GIOP "go elsewhere" signal — so enhanced
			// clients fail over to the next gateway profile immediately.
			g.connectionsShed.Add(1)
			g.log.Infof("shedding connection from %s: %s", conn.RemoteAddr(), v)
			_ = giop.WriteMessage(conn, giop.EncodeCloseConnection(cdr.BigEndian))
			_ = conn.Close()
			continue
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			g.adm.ReleaseConn(host)
			_ = conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		g.connectionsAccepted.Add(1)
		g.wg.Add(1)
		go g.serveConn(conn, host)
	}
}

// clientConn is the per-TCP-client state of figure 5a: the client
// identifiers assigned for each destination server group.
type clientConn struct {
	gw  *Gateway
	nc  net.Conn
	wmu sync.Mutex

	mu        sync.Mutex
	ids       map[replication.GroupID]uint64
	cancelled map[uint32]bool // request ids the client cancelled
}

// serveConn handles one external client: the gateway spawned a dedicated
// socket for it and keeps listening for further clients on the original
// socket (paper section 3.1). When the client departs, the gateway
// informs the other gateways so they can delete any state stored on the
// client's behalf (section 3.5).
func (g *Gateway) serveConn(nc net.Conn, host string) {
	defer g.wg.Done()
	cc := &clientConn{gw: g, nc: nc, ids: make(map[replication.GroupID]uint64), cancelled: make(map[uint32]bool)}
	defer func() {
		_ = nc.Close()
		g.mu.Lock()
		delete(g.conns, nc)
		g.mu.Unlock()
		g.adm.ReleaseConn(host)
		g.announceDepartures(cc)
	}()
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	ra := giop.NewReassembler(nc, 0)
	for {
		msg, err := ra.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				g.log.Warnf("connection %s: %v", nc.RemoteAddr(), err)
			}
			return
		}
		switch msg.Header.Type {
		case giop.MsgRequest:
			// The message's arrival instant anchors the trace and the
			// latency histogram; with both disabled the clock is skipped.
			var arrived time.Time
			if g.tracer != nil || g.reqHist != nil {
				arrived = time.Now()
			}
			req, err := giop.DecodeRequest(msg)
			if err != nil {
				g.log.Warnf("bad request from %s: %v", nc.RemoteAddr(), err)
				cc.write(giop.EncodeMessageError(msg.Header.Order))
				continue
			}
			g.requestsReceived.Add(1)
			// Resolving the group and client identifier before admission
			// keeps shed decisions per-client (the paper's TCP client
			// identifier), and a bad object key never costs a window slot.
			group, ok := g.rm.GroupByKey(req.ObjectKey)
			if !ok {
				g.exceptions.Add(1)
				cc.writeReplyRaw(msg, req, giop.Reply{
					RequestID: req.RequestID,
					Status:    giop.ReplySystemException,
					Result:    giop.SystemExceptionBody(msg.Header.Order, "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0", minorUnknownObjectKey, giop.CompletedNo),
				})
				continue
			}
			clientID := cc.clientID(group, req)
			if g.draining.Load() {
				cc.shedReply(msg, req, admission.ShedDraining)
				continue
			}
			release, verdict := g.adm.AdmitRequest(clientID)
			if verdict != admission.Admit {
				cc.shedReply(msg, req, verdict)
				continue
			}
			// The goroutine spawn is gated by the in-flight window above:
			// under overload the gateway sheds instead of growing without
			// bound.
			g.inflight.Add(1)
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				defer g.inflight.Add(-1)
				defer release()
				cc.handleRequest(msg, req, arrived, group, clientID)
			}()
		case giop.MsgLocateRequest:
			cc.handleLocate(msg)
		case giop.MsgCloseConn:
			return
		case giop.MsgCancelRequest:
			// The invocation is already in the total order and will
			// execute (it cannot be unsent, in CORBA or here); the
			// client has merely declared it no longer wants the reply,
			// so the gateway stops holding the socket for it.
			if cr, err := giop.DecodeCancelRequest(msg); err == nil {
				cc.mu.Lock()
				cc.cancelled[cr.RequestID] = true
				cc.mu.Unlock()
			}
		default:
			cc.write(giop.EncodeMessageError(msg.Header.Order))
		}
	}
}

func (cc *clientConn) write(msg giop.Message) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if err := giop.WriteMessageFragmented(cc.nc, msg, 0); err != nil {
		cc.gw.log.Warnf("write to %s: %v", cc.nc.RemoteAddr(), err)
	}
}

// clientID returns the TCP client identifier for this connection and
// destination group. Enhanced clients supply a unique identifier in the
// FT_C service context (paper section 3.5); for plain ORBs the gateway
// assigns the next value of the per-group counter (section 3.2), which
// is what makes their requests unidentifiable across gateway failures
// (section 3.4).
func (cc *clientConn) clientID(group replication.GroupID, req giop.Request) uint64 {
	if data, ok := giop.ContextByID(req.ServiceContexts, giop.FTClientContextID); ok && len(data) > 0 {
		h := fnv.New64a()
		_, _ = h.Write(data)
		id := h.Sum64()
		if id == replication.UnusedClientID {
			id = 1
		}
		return id
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if id, ok := cc.ids[group]; ok {
		return id
	}
	cc.gw.mu.Lock()
	cc.gw.counters[group]++
	// The counter is mixed with a per-gateway-instance nonce: a counter
	// value is only meaningful to the gateway that assigned it, which is
	// precisely the weakness of section 3.4 — a recovered or redundant
	// gateway has no way of knowing that a reconnecting TCP client is
	// the same client, so its resent requests become new operations.
	id := cc.gw.counters[group] ^ cc.gw.instanceNonce | counterIDBit
	cc.gw.mu.Unlock()
	cc.ids[group] = id
	return id
}

// counterIDBit marks gateway-assigned client identifiers; enhanced
// clients' hashed identifiers occupy the rest of the space (a hash could
// still land in the marked half, but the paper's point stands either
// way: counter ids are only meaningful to the assigning gateway).
const counterIDBit = uint64(1) << 63

// handleRequest implements figure 5a: resolve the object key to the
// server group, tag the request with the client and operation
// identifiers, convey it into the fault tolerance domain, and return the
// (first, deduplicated) response over the client's socket.
func (cc *clientConn) handleRequest(msg giop.Message, req giop.Request, arrived time.Time, group replication.GroupID, clientID uint64) {
	gw := cc.gw
	op := replication.OperationID{ParentTS: 0, ChildSeq: req.RequestID}
	key := cacheKey{group: group, clientID: clientID, op: op}
	tkey := obs.TraceKey{ClientID: clientID, ParentTS: op.ParentTS, ChildSeq: op.ChildSeq}
	if gw.tracer != nil {
		gw.tracer.EventAt(tkey, obs.StageGatewayAccept, arrived, "gateway")
		gw.tracer.Event(tkey, obs.StageIIOPDecode, "gateway")
	}

	// A reissued invocation (after the client failed over from a dead
	// gateway) may already have been answered; the gateway group's
	// record answers it without touching the servers.
	if rep, ok := gw.cachedReply(key); ok {
		gw.answeredFromCache.Add(1)
		gw.tracer.Event(tkey, obs.StageDupSuppressed, "gateway-record")
		if req.ResponseExpected {
			gw.repliesReturned.Add(1)
			cc.writeReplyRaw(msg, req, rep)
			gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway")
		}
		gw.observeLatency(arrived)
		return
	}

	// The section 3.5 request record rides on the invocation itself: the
	// gateways observe the invocation (whose source group is theirs) at
	// its place in the total order and build the same (client, op)
	// record a separate record multicast used to carry — one ordered
	// multicast and one request encoding per request instead of two.

	gw.requestsForwarded.Add(1)
	if !req.ResponseExpected {
		// One-way request: convey it into the domain without waiting
		// for (or ever receiving) a response.
		wire, err := giop.EncodeRequest(req.ArgsOrder, req)
		if err != nil {
			gw.log.Errorf("encode one-way: %v", err)
			return
		}
		if err := gw.rm.MulticastMessage(replication.Message{
			Header: replication.Header{
				Kind:     replication.KindInvocation,
				ClientID: clientID,
				SrcGroup: gw.cfg.Group,
				DstGroup: group,
				Op:       op,
			},
			Payload: giop.Marshal(wire),
		}); err != nil {
			gw.requestsAbandoned.Add(1)
		}
		return
	}
	rep, err := gw.rm.Invoke(gw.cfg.Group, clientID, group, op, req, replication.DefaultInvokeTimeout)
	if err != nil {
		gw.requestsAbandoned.Add(1)
		gw.exceptions.Add(1)
		if req.ResponseExpected {
			cc.writeReplyRaw(msg, req, giop.Reply{
				RequestID: req.RequestID,
				Status:    giop.ReplySystemException,
				Result:    giop.SystemExceptionBody(msg.Header.Order, "IDL:omg.org/CORBA/COMM_FAILURE:1.0", minorInvokeFailed, giop.CompletedNo),
			})
			gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway-exception")
		}
		// Abandoned and excepted requests are exactly the slow ones; the
		// latency histogram must include them.
		gw.observeLatency(arrived)
		return
	}
	if req.ResponseExpected && !cc.isCancelled(req.RequestID) {
		gw.repliesReturned.Add(1)
		cc.writeReplyRaw(msg, req, rep)
		gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway")
	}
	gw.observeLatency(arrived)
}

// isCancelled reports (and consumes) a cancellation for a request id.
func (cc *clientConn) isCancelled(id uint32) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.cancelled[id] {
		delete(cc.cancelled, id)
		return true
	}
	return false
}

// shedReply refuses an invocation with a TRANSIENT system exception —
// the CORBA "try again" signal. completed=COMPLETED_NO tells the client
// the operation never entered the total order, so an immediate retry (or
// a failover to a redundant gateway) is always safe. The admission
// verdict travels in the minor code so operators can tell shed causes
// apart on the wire.
func (cc *clientConn) shedReply(msg giop.Message, req giop.Request, v admission.Verdict) {
	gw := cc.gw
	gw.requestsShed.Add(1)
	gw.exceptions.Add(1)
	if !req.ResponseExpected {
		return
	}
	cc.writeReplyRaw(msg, req, giop.Reply{
		RequestID: req.RequestID,
		Status:    giop.ReplySystemException,
		Result:    giop.SystemExceptionBody(msg.Header.Order, repoIDTransient, v.Minor(), giop.CompletedNo),
	})
}

// writeReplyRaw re-encodes a reply in the byte order of the client's
// request and writes it to the socket.
func (cc *clientConn) writeReplyRaw(msg giop.Message, req giop.Request, rep giop.Reply) {
	rep.RequestID = req.RequestID
	out, err := giop.EncodeReplyV(msg.Header.Order, msg.Header.Minor, rep)
	if err != nil {
		cc.gw.log.Errorf("encode reply: %v", err)
		return
	}
	cc.write(out)
}

func (cc *clientConn) handleLocate(msg giop.Message) {
	lr, err := giop.DecodeLocateRequest(msg)
	if err != nil {
		return
	}
	status := giop.LocateUnknownObject
	if _, ok := cc.gw.rm.GroupByKey(lr.ObjectKey); ok {
		// The gateway claims to be the object (paper section 3.1).
		status = giop.LocateObjectHere
	}
	cc.write(giop.EncodeLocateReply(msg.Header.Order, giop.LocateReply{
		RequestID: lr.RequestID,
		Status:    status,
	}))
}

// announceDepartures tells the gateway group that a TCP client's
// connection ended, one notification per client identifier the
// connection used, so every gateway deletes the state it stored on the
// client's behalf. Enhanced clients are exempt: their identifiers
// outlive connections by design (that is what makes failover reissues
// recognizable), so their records age out of the bounded caches instead.
func (g *Gateway) announceDepartures(cc *clientConn) {
	cc.mu.Lock()
	ids := make([]uint64, 0, len(cc.ids))
	for _, id := range cc.ids {
		ids = append(ids, id)
	}
	cc.mu.Unlock()
	for _, id := range ids {
		_ = g.rm.MulticastMessage(replication.Message{
			Header: replication.Header{
				Kind:     replication.KindGatewayControl,
				ClientID: id,
				SrcGroup: g.cfg.Group,
				DstGroup: g.cfg.Group,
			},
		})
	}
}

// departureLoop processes departed-client notifications off the
// replication event loop: the observer contract forbids blocking there,
// and deleting a client's records walks its whole record shard.
func (g *Gateway) departureLoop() {
	defer g.wg.Done()
	for {
		select {
		case <-g.depNotify:
			g.drainDepartures()
		case <-g.quit:
			// Process notifications already queued so departures observed
			// before shutdown still clean up.
			g.drainDepartures()
			return
		}
	}
}

// drainDepartures swaps out the queued departure notifications and
// processes them. Swapping under the lock keeps the observer's enqueue
// path to an append.
func (g *Gateway) drainDepartures() {
	g.depMu.Lock()
	batch := g.depQueue
	g.depQueue = nil
	g.depMu.Unlock()
	for _, id := range batch {
		g.processDeparture(id)
	}
}

func (g *Gateway) processDeparture(clientID uint64) {
	g.records.dropClient(clientID)
	g.clientsDeparted.Add(1)
}

// observe is the gateway-group observer: it records requests (to detect
// reinvocations) and responses (to answer reissued invocations) flowing
// through any gateway of the group. It runs on the replication event
// loop and must not block.
func (g *Gateway) observe(msg replication.Message, ts uint64) {
	switch msg.Header.Kind {
	case replication.KindGatewayControl:
		// A client departed somewhere in the gateway group: hand the
		// cleanup to the departure worker over a bounded queue. A full
		// queue drops the notification instead of spawning a goroutine —
		// the departure worker is already saturated, and the dropped
		// client's records age out of the bounded record caches anyway.
		if msg.Header.ClientID != replication.UnusedClientID {
			g.depMu.Lock()
			if len(g.depQueue) < departQueueMax {
				g.depQueue = append(g.depQueue, msg.Header.ClientID)
				g.depMu.Unlock()
				select {
				case g.depNotify <- struct{}{}:
				default:
				}
			} else {
				g.depMu.Unlock()
				g.departuresDropped.Add(1)
			}
		}
		return
	case replication.KindInvocation:
		if msg.Header.ClientID == replication.UnusedClientID {
			return
		}
		// The record rides on the invocation itself: every invocation a
		// gateway of this group conveys has this group as its source, and
		// the replication mechanisms dispatch it to the source group's
		// observer at its place in the total order. Reinvocation
		// detection keys on (client, op) with the gateway group, exactly
		// as the former separate record multicast did.
		if msg.Header.SrcGroup != g.cfg.Group {
			return
		}
		key := cacheKey{group: msg.Header.SrcGroup, clientID: msg.Header.ClientID, op: msg.Header.Op}
		if g.records.noteSeen(key) {
			g.reinvocationsDetected.Add(1)
		}
	case replication.KindResponse:
		if msg.Header.ClientID == replication.UnusedClientID {
			return
		}
		// The raw encapsulated reply is stored as-is (the record store
		// copies it out of the delivery buffer); decoding happens only on
		// the rare reissue path, keeping CDR work off the event loop.
		key := cacheKey{group: msg.Header.SrcGroup, clientID: msg.Header.ClientID, op: msg.Header.Op}
		g.records.storeReply(key, msg.Payload)
	}
}

// cachedReply returns the recorded response for a reissued invocation,
// decoding the stored raw reply. A record that fails to decode (it was
// malformed on the wire and would have been ignored by the old eager
// path too) reads as a miss.
func (g *Gateway) cachedReply(key cacheKey) (giop.Reply, bool) {
	raw, ok := g.records.reply(key)
	if !ok {
		return giop.Reply{}, false
	}
	wire, err := giop.Unmarshal(raw)
	if err != nil {
		return giop.Reply{}, false
	}
	rep, err := giop.DecodeReply(wire)
	if err != nil {
		return giop.Reply{}, false
	}
	return rep, true
}

// RecordedReplies reports how many responses the gateway currently holds
// in its gateway-group record (diagnostics and tests).
func (g *Gateway) RecordedReplies() int { return g.records.countReplies() }

// RecordedRequests reports how many request records the gateway holds.
func (g *Gateway) RecordedRequests() int { return g.records.countSeen() }
