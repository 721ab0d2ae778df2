package client

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/kv"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/server"
	"tebis/internal/wire"
)

// ServerHandle is the connection surface a region server exposes to
// clients (satisfied by *server.Server).
type ServerHandle interface {
	Name() string
	Endpoint() *rdma.Endpoint
	Connect(clientEP *rdma.Endpoint, replyRKey uint32) (server.ConnInfo, error)
}

// Config configures a client.
type Config struct {
	// Name identifies the client (its NIC name).
	Name string
	// Servers maps server names to handles.
	Servers map[string]ServerHandle
	// Map is the initial region map (clients read and cache it at
	// initialization, §3.1).
	Map *region.Map
	// Refresh re-reads the region map after a FlagWrongRegion reply; it
	// may be nil when the topology is static.
	Refresh func() (*region.Map, error)
	// ReplySlot is the default reply slot size for get/scan
	// (grows after partial replies), rounded up to whole 32-byte reply
	// lines.
	// Defaults to 1 KiB.
	ReplySlot int
	// Trace receives request-scoped spans for sampled operations; nil
	// disables request tracing entirely.
	Trace *obs.Tracer
	// TraceSampleRate is the head-based sampling probability applied
	// per operation when Trace is set: 0 selects
	// DefaultTraceSampleRate, negative disables sampling, values >= 1
	// trace every operation. Sampling is deterministic (every
	// round(1/rate)-th op), so low rates still trace steadily under
	// load.
	TraceSampleRate float64
	// Tenant identifies this client's tenant in every request header,
	// for per-tenant latency attribution and admission control
	// (DESIGN.md "Data path" and "Observability"). 0 is the default tenant.
	Tenant uint8
	// Priority is the admission-control class stamped on requests.
	// Class 0 (the default) is the one the server delays or sheds
	// first under overload; higher classes are never shed.
	Priority uint8
	// Stages receives client-side stage samples (the client_queue
	// stage: time an op waits for ring/reply-slot space before hitting
	// the wire) for sampled ops; nil disables stage recording.
	Stages *metrics.StageSet
}

// DefaultTraceSampleRate traces ~1 in 128 operations — frequent enough
// to populate the ring quickly, rare enough to stay inside the ≤5%
// observability overhead gate.
const DefaultTraceSampleRate = 1.0 / 128

// Errors reported by the client.
var (
	ErrNoServer = errors.New("client: no handle for server")
	ErrServer   = errors.New("client: server error")
	ErrClosed   = errors.New("client: closed")
	// ErrOverloaded is the ErrServer a mutation fails with when
	// admission control kept shedding it through every backoff retry:
	// nothing was applied, and the caller should back off further.
	ErrOverloaded = fmt.Errorf("%w: overloaded", ErrServer)
)

// Client is a Tebis client: it routes operations by cached region map
// and multiplexes them over per-server RDMA connections.
type Client struct {
	cfg Config
	ep  *rdma.Endpoint

	// routes is what an op is routed by, read with one atomic load: route
	// takes no lock. refreshMap and Close swap in a new value.
	routes    atomic.Pointer[routes]
	replySlot atomic.Int64
	reqID     atomic.Uint64

	// refreshMu single-flights region-map refreshes: concurrent stale
	// ops coalesce onto one master fetch instead of a thundering herd.
	refreshMu       sync.Mutex
	staleRetries    atomic.Uint64
	overloadRetries atomic.Uint64

	// tenantLabel is the pre-rendered metrics label for cfg.Tenant.
	tenantLabel string

	// sendBufs recycles request buffers (*sendBuf) across calls.
	sendBufs sync.Pool

	// Request tracing (nil trace / sampleEvery 0 = off). opCtr drives
	// the deterministic head-based sampling decision; traceBase spreads
	// trace IDs so concurrent clients don't collide.
	trace       *obs.Tracer
	sampleEvery uint64
	opCtr       atomic.Uint64
	traceBase   uint64
}

// routes is one routing view of a Client: its cached region map, the
// connections to the servers the map's primaries are on, and whether the
// client is closed. A value is never modified once published; a refresh
// or a Close publishes a new one.
type routes struct {
	rmap   *region.Map
	conns  map[string]*serverConn
	closed bool
}

// serverConn is one client↔server connection pair of buffers.
type serverConn struct {
	c        *Client
	name     string
	server   *rdma.Endpoint
	reqQP    *rdma.QP // client → server one-sided writes
	reqRKey  uint32
	reqRing  *ring
	replyBuf *rdma.MemoryRegion
	replyFL  *freeList
}

// New creates a client and connects it to every server.
func New(cfg Config) (*Client, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("client: Config.Map is required")
	}
	if cfg.ReplySlot == 0 {
		cfg.ReplySlot = 1024
	}
	// Reply slots are whole lines, so every slot the reply buffer hands
	// out starts on a line, which is how a request header addresses it.
	cfg.ReplySlot = (cfg.ReplySlot + wire.ReplyLine - 1) / wire.ReplyLine * wire.ReplyLine
	c := &Client{
		cfg: cfg,
		ep:  rdma.NewEndpoint(cfg.Name),
	}
	c.replySlot.Store(int64(cfg.ReplySlot))
	c.tenantLabel = fmt.Sprintf("t%d", cfg.Tenant)
	if cfg.Trace != nil {
		rate := cfg.TraceSampleRate
		if rate == 0 {
			rate = DefaultTraceSampleRate
		}
		if rate > 0 {
			if rate > 1 {
				rate = 1
			}
			c.trace = cfg.Trace.Node(cfg.Name)
			c.sampleEvery = uint64(math.Round(1 / rate))
			if c.sampleEvery == 0 {
				c.sampleEvery = 1
			}
			h := fnv.New64a()
			_, _ = h.Write([]byte(cfg.Name))
			c.traceBase = h.Sum64()
		}
	}
	conns := map[string]*serverConn{}
	for name, h := range cfg.Servers {
		conn, err := c.dial(name, h)
		if err != nil {
			return nil, err
		}
		conns[name] = conn
	}
	c.routes.Store(&routes{rmap: cfg.Map.Clone(), conns: conns})
	return c, nil
}

func (c *Client) dial(name string, h ServerHandle) (*serverConn, error) {
	replyBuf, err := c.ep.Register(server.DefaultBufferSize)
	if err != nil {
		return nil, err
	}
	if replyBuf.Size() > wire.ReplyBufferMax {
		return nil, fmt.Errorf("client: a %d-byte reply buffer is past the %d bytes a request can address", replyBuf.Size(), wire.ReplyBufferMax)
	}
	info, err := h.Connect(c.ep, replyBuf.RKey())
	if err != nil {
		return nil, err
	}
	return &serverConn{
		c:        c,
		name:     name,
		server:   h.Endpoint(),
		reqQP:    rdma.Connect(c.ep, h.Endpoint(), 0), // requests are unsignalled
		reqRKey:  info.ReqRKey,
		reqRing:  newRing(info.BufSize),
		replyBuf: replyBuf,
		replyFL:  newFreeList(replyBuf.Size()),
	}, nil
}

// Endpoint returns the client's NIC: its counters are the client's side
// of every request and reply it exchanged.
func (c *Client) Endpoint() *rdma.Endpoint { return c.ep }

// Map returns the client's cached region map.
func (c *Client) Map() *region.Map { return c.routes.Load().rmap }

// routeInfo is one routing decision: the region and the map version it
// came from, so a failed attempt can tell the refresher which map it
// found stale.
type routeInfo struct {
	conn    *serverConn
	id      region.ID
	version uint64
}

// route resolves the connection for the primary of key's region, from
// the routing view published last — no lock.
func (c *Client) route(key []byte) (routeInfo, error) {
	rt := c.routes.Load()
	if rt.closed {
		return routeInfo{}, ErrClosed
	}
	r, err := rt.rmap.Lookup(key)
	if err != nil {
		return routeInfo{}, err
	}
	conn, ok := rt.conns[r.Primary]
	if !ok {
		return routeInfo{}, fmt.Errorf("%w: %s", ErrNoServer, r.Primary)
	}
	return routeInfo{conn: conn, id: r.ID, version: rt.rmap.Version}, nil
}

// StaleRetries returns how many ops were retried after a wrong-region
// reply — the convergence cost a failover imposes on this client.
func (c *Client) StaleRetries() uint64 {
	return c.staleRetries.Load()
}

// OverloadRetries returns how many ops were backed off and retried
// after the server shed them under admission control.
func (c *Client) OverloadRetries() uint64 {
	return c.overloadRetries.Load()
}

// refreshMap re-reads the region map after a wrong-region reply.
// Single-flight: concurrent stale ops serialize here, and a refresh
// that already superseded staleVersion is not repeated, so a failover
// triggers one map fetch per client rather than one per stale op.
func (c *Client) refreshMap(staleVersion uint64) error {
	if c.cfg.Refresh == nil {
		return fmt.Errorf("client: stale region map and no refresh source")
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if c.routes.Load().rmap.Version > staleVersion {
		// A concurrent op already refreshed past the map we found stale.
		return nil
	}
	m, err := c.cfg.Refresh()
	if err != nil {
		return err
	}
	fresh := m.Clone()
	for {
		old := c.routes.Load()
		// >= not >: a refresh source may legitimately hand back a
		// same-version map with different contents (static topologies
		// rebuild their map); only a strictly older map is rejected. A
		// closed client stays closed.
		if old.closed || fresh.Version < old.rmap.Version {
			return nil
		}
		if c.routes.CompareAndSwap(old, &routes{rmap: fresh, conns: old.conns}) {
			return nil
		}
	}
}

// sendBuf is one call's request: the payload is encoded once, behind the
// header slot of a reusable message buffer, and every attempt finishes
// the message in place around it (a retry changes the header only).
// QP.WriteUnsignaled is the DMA — it copies the bytes into the server's
// registered memory — so the buffer is free again when it returns. A Client is
// shared by goroutines and by Async, so buffers are recycled per call
// (sync.Pool), not kept per connection.
type sendBuf struct {
	wire.MsgBuf
	payload []byte
}

func (c *Client) sendBuf() *sendBuf {
	if sb, _ := c.sendBufs.Get().(*sendBuf); sb != nil {
		return sb
	}
	return new(sendBuf)
}

// sendNoop transmits NOOP messages filling the pre-reserved wrap extent
// and waits for their replies before freeing it (§3.4.2 case b).
func (sc *serverConn) sendNoop(e *extent) error {
	residual := e.size
	if residual < wire.HeaderSize || residual%wire.HeaderSize != 0 {
		// Impossible: every message is a multiple of the 64-byte header
		// line, so the residual always is too.
		return fmt.Errorf("client: residual %d not a header multiple", residual)
	}
	// Fill the residual exactly with one NOOP: a header-only one for a
	// single line, else one whose payload pads back to the residual (60
	// bytes or more, over InlineMax, so it follows the header).
	payloadLen := 0
	if residual > wire.HeaderSize {
		payloadLen = residual - wire.HeaderSize - 4
	}
	if err := sc.noopRoundTrip(e.off, payloadLen); err != nil {
		return err
	}
	sc.reqRing.free(e)
	return nil
}

// noopRoundTrip writes one NOOP with payloadLen zero payload bytes at
// ring offset off and waits for its reply.
func (sc *serverConn) noopRoundTrip(off, payloadLen int) error {
	replySize := wire.ReplyMessageSize(wire.StatusReply{}.Size())
	replyOff := sc.replyFL.alloc(replySize)
	defer sc.replyFL.free(replyOff, replySize)
	hdr := wire.Header{
		Opcode:      wire.OpNoop,
		RequestID:   sc.c.reqID.Add(1),
		ReplyOffset: uint32(replyOff),
		ReplySize:   uint32(replySize),
	}
	sb := sc.c.sendBuf()
	defer sc.c.sendBufs.Put(sb)
	payload := sb.Reserve(payloadLen)[:payloadLen]
	clear(payload)
	msg := sb.Finish(hdr, payload)
	poll := sc.replyBuf.Poller()
	if err := sc.reqQP.WriteUnsignaled(sc.reqRKey, off, msg); err != nil {
		return err
	}
	_, _, err := sc.awaitReply(&poll, replyOff, replySize, hdr.RequestID, false)
	return err
}

// call performs one synchronous request-reply round trip with the
// request sb holds. traceID is the sampled request's trace context (0 =
// unsampled), carried ahead of the payload (wire.FlagTraced) so every
// server-side hop records spans under it. keep asks for the reply's
// payload; an error reply's text is returned either way.
func (sc *serverConn) call(op wire.Op, regionID region.ID, sb *sendBuf, replySize int, traceID uint64, keep bool) (wire.Header, []byte, error) {
	wireLen := len(sb.payload)
	if traceID != 0 {
		wireLen += wire.TracePrefix
	}
	total := wire.SentSize(wireLen)
	// The client_queue stage: everything a sampled op waits on before
	// its bytes hit the wire — reply-slot allocation, ring space, and
	// any wrap-filling NOOP round trips.
	var queueStart time.Time
	if traceID != 0 {
		queueStart = time.Now()
	}
	// Allocate the reply slot before the request extent: the server
	// consumes requests in ring order, so a request written to the ring
	// must never wait on resources freed by later replies.
	replyOff := sc.replyFL.alloc(replySize)
	defer sc.replyFL.free(replyOff, replySize)
	e, noopE, err := sc.reqRing.alloc(total)
	if err != nil {
		return wire.Header{}, nil, err
	}
	if noopE != nil {
		if err := sc.sendNoop(noopE); err != nil {
			return wire.Header{}, nil, err
		}
	}
	defer sc.reqRing.free(e)
	hdr := wire.Header{
		Opcode:      op,
		RegionID:    uint16(regionID),
		RequestID:   sc.c.reqID.Add(1),
		ReplyOffset: uint32(replyOff),
		ReplySize:   uint32(replySize),
		TraceID:     traceID,
		Tenant:      sc.c.cfg.Tenant,
		Priority:    sc.c.cfg.Priority,
	}
	// Stamped after slot/ring allocation: the dispatch stage the server
	// derives from SentAt starts where client_queue ends. Every request
	// carries it, not just sampled ones, because SentAt is also the
	// admission controller's queue-wait signal — a flash burst has to
	// move the controller's EWMA within a few milliseconds, far faster
	// than the trace sampler surfaces observations. The header carries
	// its low 32 bits; a stamp whose low bits are all zero (one in 2^32)
	// reads as unstamped and goes untimed.
	hdr.SentAt = time.Now().UnixNano()
	msg := sb.Finish(hdr, sb.payload)
	if !queueStart.IsZero() {
		sc.c.cfg.Stages.Record(metrics.StageClientQueue, sc.c.tenantLabel,
			traceID, time.Since(queueStart))
	}
	poll := sc.replyBuf.Poller()
	// Unsignaled: the reply is what says the request landed, so no
	// completion is queued for it — and a request lost on the wire is
	// caught by the reply deadline, not waited for forever.
	if err := sc.reqQP.WriteUnsignaled(sc.reqRKey, e.off, msg); err != nil {
		return wire.Header{}, nil, err
	}
	return sc.awaitReply(&poll, replyOff, replySize, hdr.RequestID, keep)
}

// replyTimeout is how long awaitReply waits, from its first sleep, before
// it gives up on a reply; only tests change it.
var replyTimeout = 30 * time.Second

// awaitReply polls the reply slot [off, off+slot) until the complete
// reply to reqID lands and takes it (takeReply). poll was taken before
// the request went out, when the slot could hold nothing for it, so a
// look waits — with no lock — for the server to write into the buffer.
// It yields 256 times, then sleeps between looks. A server that crashed
// with the request in flight has closed its endpoint, which a look
// before each sleep sees: that is rdma.ErrDisconnected, at once. A long
// silence otherwise (the request or its reply was lost on the wire)
// surfaces as errReplyTimeout, replyTimeout after the first sleep: most
// replies land during the yields, which read no clock, and a sleep costs
// far more than the clock read beside it.
func (sc *serverConn) awaitReply(poll *rdma.Poller, off, slot int, reqID uint64, keep bool) (wire.Header, []byte, error) {
	var deadline time.Time
	for spins := 0; ; spins++ {
		if h, body, done, err := sc.takeReply(poll, off, slot, reqID, keep); done || err != nil {
			return h, body, err
		}
		if spins < 256 {
			runtime.Gosched()
			continue
		}
		if sc.server.Closed() {
			return wire.Header{}, nil, fmt.Errorf("%w: server %s", rdma.ErrDisconnected, sc.name)
		}
		if now := time.Now(); deadline.IsZero() {
			deadline = now.Add(replyTimeout)
		} else if now.After(deadline) {
			return wire.Header{}, nil, errReplyTimeout
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// takeReply looks at the reply slot once, through poll, reading the
// reply where it landed: the line's rendezvous word and, only once it is
// there, the 32-byte line into a stack buffer; of an out-of-line reply
// then the trailer word; then — when the caller keeps the payload, or the reply is an
// error whose text it will need — the payload, copied exactly once (an
// inline one out of the line's copy) into a slice the caller owns from
// then on. A reply taken is cleared out of the slot before the slot is
// handed back, so a stale magic never re-triggers. done is false while
// the reply to reqID is not complete.
func (sc *serverConn) takeReply(poll *rdma.Poller, off, slot int, reqID uint64, keep bool) (h wire.Header, body []byte, done bool, err error) {
	var line [wire.ReplyLine]byte
	if ok, err := poll.ReadIfWord(off, line[:], wire.ReplyMagic); !ok {
		return wire.Header{}, nil, false, err
	}
	if h, err = wire.DecodeReplyHeader(line[:]); err != nil || h.RequestID != reqID {
		return wire.Header{}, nil, false, nil
	}
	total := h.ReplyWireSize()
	if total > slot {
		return wire.Header{}, nil, false, fmt.Errorf("%w: reply of %d bytes overruns its %d-byte slot", ErrServer, total, slot)
	}
	if total > wire.ReplyLine {
		var trailer [4]byte
		if err := sc.replyBuf.ReadAt(off+total-len(trailer), trailer[:]); err != nil {
			return wire.Header{}, nil, false, err
		}
		if !wire.ReplyArrived(trailer[:]) {
			return wire.Header{}, nil, false, nil
		}
	}
	if keep || h.Flags&wire.FlagError != 0 {
		if h.Inline() {
			body = append([]byte(nil), wire.ReplyInlinePayload(line[:], h)...)
		} else {
			body = make([]byte, h.PayloadSize)
			if err := sc.replyBuf.ReadAt(off+wire.ReplyLine, body); err != nil {
				return wire.Header{}, nil, false, err
			}
		}
	}
	if err := sc.replyBuf.Clear(off, total); err != nil {
		return wire.Header{}, nil, false, err
	}
	return h, body, true, nil
}

// sampleTrace makes the head-based sampling decision for one client
// operation: every sampleEvery-th op gets a fresh non-zero trace ID,
// the rest get 0 (unsampled). The unsampled path costs one atomic add.
func (c *Client) sampleTrace() uint64 {
	if c.sampleEvery == 0 {
		return 0
	}
	n := c.opCtr.Add(1)
	if (n-1)%c.sampleEvery != 0 {
		return 0
	}
	// Spread sequential sample numbers over the ID space so traces from
	// different clients stay distinct; fnv(name) separates clients.
	id := c.traceBase ^ (n * 0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// do routes and executes an op. Stale-map replies (FlagWrongRegion) and
// broken connections (the target crashed) both trigger a region-map
// refresh and a retry against the new primary (§3.1, §3.5). When the
// op is sampled, the whole routing/retry envelope is recorded as the
// request's client-side span.
func (c *Client) do(key []byte, op wire.Op, sb *sendBuf, replySize int, keep bool) (wire.Header, []byte, error) {
	traceID := c.sampleTrace()
	if traceID == 0 {
		h, body, _, err := c.doAttempts(key, op, sb, replySize, 0, keep)
		return h, body, err
	}
	start := time.Now()
	h, body, rid, err := c.doAttempts(key, op, sb, replySize, traceID, keep)
	c.trace.Record(obs.Span{
		Cat:       "request",
		Name:      op.String(),
		Req:       traceID,
		Tenant:    c.tenantLabel,
		Region:    uint16(rid),
		HasRegion: true,
		Bytes:     int64(len(sb.payload)),
		Start:     start,
		Dur:       time.Since(start),
	})
	return h, body, err
}

func (c *Client) doAttempts(key []byte, op wire.Op, sb *sendBuf, replySize int, traceID uint64, keep bool) (wire.Header, []byte, region.ID, error) {
	const maxAttempts = 6
	var rid region.ID
	for attempt := 0; ; attempt++ {
		rt, err := c.route(key)
		if err != nil {
			return wire.Header{}, nil, rid, err
		}
		rid = rt.id
		h, body, err := rt.conn.call(op, rt.id, sb, replySize, traceID, keep)
		if err != nil {
			if isTransportErr(err) && attempt < maxAttempts {
				time.Sleep(2 * time.Millisecond)
				if rerr := c.refreshMap(rt.version); rerr != nil {
					return wire.Header{}, nil, rid, rerr
				}
				continue
			}
			return wire.Header{}, nil, rid, err
		}
		if h.Flags&wire.FlagOverload != 0 && attempt < maxAttempts {
			// Admission control shed the request (DESIGN.md "Data path"):
			// nothing was applied. Back off — doubling with each rejection
			// so a shedding server's flash crowd parks instead of hammering
			// the door — and retry.
			c.overloadRetries.Add(1)
			time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
			continue
		}
		if h.Flags&wire.FlagWrongRegion != 0 && attempt < maxAttempts {
			// Stale map: refresh and re-route. The single-flight
			// refresher keeps a failover from stampeding the master.
			c.staleRetries.Add(1)
			if err := c.refreshMap(rt.version); err != nil {
				return wire.Header{}, nil, rid, err
			}
			continue
		}
		if h.Flags&wire.FlagError != 0 {
			if h.Flags&wire.FlagOverload != 0 {
				return h, nil, rid, fmt.Errorf("%w: %s", ErrOverloaded, body)
			}
			return h, nil, rid, fmt.Errorf("%w: %s", ErrServer, body)
		}
		return h, body, rid, nil
	}
}

// isTransportErr classifies connection-loss errors worth a failover
// retry.
func isTransportErr(err error) bool {
	return errors.Is(err, rdma.ErrBadRKey) || errors.Is(err, rdma.ErrDisconnected) || errors.Is(err, errReplyTimeout)
}

// errReplyTimeout marks a reply that never arrived (the server died with
// the request in flight, or the request or the reply was lost).
var errReplyTimeout = errors.New("client: reply timed out")

// mutate sends one put or delete; a nil value with OpDelete tombstones
// the key.
func (c *Client) mutate(op wire.Op, key, value []byte) error {
	req := wire.PutReq{Key: key, Value: value}
	sb := c.sendBuf()
	defer c.sendBufs.Put(sb)
	sb.payload = req.Encode(sb.Reserve(req.Size()))
	// Put replies are fixed size: allocate exactly (§3.4.1), one line
	// with the status byte inside it. The status byte says nothing the
	// header's flags do not, so it is not copied out.
	_, _, err := c.do(key, op, sb, wire.ReplyMessageSize(wire.StatusReply{}.Size()), false)
	return err
}

// Put stores a key-value pair.
func (c *Client) Put(key, value []byte) error { return c.mutate(wire.OpPut, key, value) }

// Delete removes a key.
func (c *Client) Delete(key []byte) error { return c.mutate(wire.OpDelete, key, nil) }

// Get fetches the value for a key. Values exceeding the reply slot are
// completed with follow-up OpGetRest round trips, and the slot estimate
// grows so later gets avoid the extra trip (§3.4.1). Each get-rest reads
// the log record the partial reply came from, so the pieces are one
// version of the value even when the key is put over in between; a
// record gone by then (reclaimed, or a failover since) starts the get
// over. The returned value is the caller's: it aliases no buffer the
// client reuses.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	sb := c.sendBuf()
	defer c.sendBufs.Put(sb)
	for restarts := 0; ; restarts++ {
		val, found, done, err := c.get(key, sb)
		if done || err != nil {
			return val, found, err
		}
		if restarts == maxGetRestarts {
			return nil, false, fmt.Errorf("%w: the value's record went away mid-fetch %d times", ErrServer, restarts+1)
		}
	}
}

// maxGetRestarts bounds how often a get starts over because the record a
// partial reply named was gone by its get-rest. The first partial reply
// grows the slot, so a restart normally fetches the value whole.
const maxGetRestarts = 4

// get is one attempt at Get: a get, and the get-rests its partial reply
// calls for. done is false when a get-rest found the record gone, and the
// get has to start over.
func (c *Client) get(key []byte, sb *sendBuf) (val []byte, found, done bool, err error) {
	req := wire.GetReq{Key: key}
	sb.payload = req.Encode(sb.Reserve(req.Size()))
	_, body, err := c.do(key, wire.OpGet, sb, int(c.replySlot.Load()), true)
	if err != nil {
		return nil, false, true, err
	}
	rep, err := wire.DecodeGetReply(body)
	if err != nil || !rep.Found {
		return nil, false, true, err
	}
	// body is this call's own copy of the reply payload, so the value
	// inside it is returned as it is.
	val = rep.Value
	if !rep.Partial {
		return val, true, true, nil
	}
	// Grow the slot estimate for subsequent requests: room for the whole
	// value and 256 bytes more, the reply's status byte among them — more
	// room past the value than a slot had when a reply took a 64-byte
	// line and a 9-byte prefix, so a later, slightly longer value goes
	// partial no more often — but no more than the reply buffer, which a
	// larger slot would wait for forever.
	want := min(wire.ReplyMessageSize(int(rep.TotalSize)+256), server.DefaultBufferSize)
	for {
		cur := c.replySlot.Load()
		if int64(want) <= cur || c.replySlot.CompareAndSwap(cur, int64(want)) {
			break
		}
	}
	total, record := rep.TotalSize, rep.Record
	for rep.Partial {
		if len(rep.Value) == 0 {
			return nil, false, true, fmt.Errorf("%w: a partial reply of no value bytes", ErrServer)
		}
		rest := wire.GetRestReq{Key: key, Offset: uint32(len(val)), Record: record}
		sb.payload = rest.Encode(sb.Reserve(rest.Size()))
		_, body, err := c.do(key, wire.OpGetRest, sb, want, true)
		if err != nil {
			return nil, false, true, err
		}
		if rep, err = wire.DecodeGetReply(body); err != nil {
			return nil, false, true, err
		}
		if !rep.Found {
			return nil, false, false, nil
		}
		val = append(val, rep.Value...)
	}
	if uint32(len(val)) != total {
		return nil, false, true, fmt.Errorf("%w: a %d-byte value came back as %d bytes", ErrServer, total, len(val))
	}
	return val, true, true, nil
}

// Scan returns up to count pairs with keys >= start. Scans are served by
// the region covering start; a scan never crosses region boundaries in
// one call (callers continue from the last key). The returned pairs are
// the caller's: they share one buffer no one else holds.
func (c *Client) Scan(start []byte, count int) ([]kv.Pair, error) {
	slot := int(c.replySlot.Load())
	if slot < 4096 {
		slot = 4096
	}
	req := wire.ScanReq{Start: start, Count: uint32(count)}
	sb := c.sendBuf()
	defer c.sendBufs.Put(sb)
	sb.payload = req.Encode(sb.Reserve(req.Size()))
	_, body, err := c.do(start, wire.OpScan, sb, slot, true)
	if err != nil {
		return nil, err
	}
	rep, err := wire.DecodeScanReply(body)
	if err != nil {
		return nil, err
	}
	return rep.Pairs, nil
}

// Close tears down the client's connections. Ops routed from then on
// fail with ErrClosed; one routed before fails on its closed connection.
func (c *Client) Close() {
	for {
		old := c.routes.Load()
		if old.closed {
			return
		}
		if c.routes.CompareAndSwap(old, &routes{rmap: old.rmap, conns: old.conns, closed: true}) {
			for _, conn := range old.conns {
				conn.reqQP.Close()
			}
			return
		}
	}
}
