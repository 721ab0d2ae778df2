package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// newServerAndClient wires one region server (hosting the whole keyspace
// as a single No-Replication region) to one client over the RDMA
// protocol.
func newServerAndClient(t *testing.T) (*server.Server, *Client) {
	t.Helper()
	return newServerAndClientRing(t, 0)
}

// newServerAndClientRing is newServerAndClient with a request ring of
// ringSize bytes (0 = the default).
func newServerAndClientRing(t *testing.T, ringSize int) (*server.Server, *Client) {
	t.Helper()
	dev, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Name:       "s0",
		Device:     dev,
		Endpoint:   rdma.NewEndpoint("s0"),
		Cycles:     &metrics.Cycles{},
		BufferSize: ringSize,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    512,
			MaxLevels:    5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rmap, err := region.Partition(1, []string{"s0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenPrimary(rmap.Regions[0], replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		Name:    "client0",
		Servers: map[string]ServerHandle{"s0": srv},
		Map:     rmap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		dev.Close()
	})
	t.Cleanup(func() { srv.Close() })
	return srv, cl
}

func TestClientPutGet(t *testing.T) {
	_, cl := newServerAndClient(t)
	if err := cl.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.Get([]byte("hello"))
	if err != nil || !found || string(v) != "world" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	if _, found, err := cl.Get([]byte("absent")); err != nil || found {
		t.Fatalf("absent Get = %v, %v", found, err)
	}
}

func TestClientDelete(t *testing.T) {
	_, cl := newServerAndClient(t)
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cl.Get([]byte("k")); found {
		t.Fatal("deleted key found")
	}
}

func TestClientLargeValuePartialReply(t *testing.T) {
	_, cl := newServerAndClient(t)
	// Value larger than the 1 KiB default reply slot: exercises the
	// partial-reply + get-rest protocol (§3.4.1).
	big := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9600 B
	if err := cl.Put([]byte("bigkey"), big); err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.Get([]byte("bigkey"))
	if err != nil || !found {
		t.Fatalf("Get = %v, %v", found, err)
	}
	if !bytes.Equal(v, big) {
		t.Fatalf("big value mismatch: got %d bytes, want %d", len(v), len(big))
	}
	// The slot estimate must have grown: a second get completes in one
	// round trip (observable only via correctness here).
	v2, _, err := cl.Get([]byte("bigkey"))
	if err != nil || !bytes.Equal(v2, big) {
		t.Fatalf("second big Get mismatch (%v)", err)
	}
}

func TestClientManyOpsWrapsRing(t *testing.T) {
	_, cl := newServerAndClient(t)
	// Enough traffic to wrap the 256 KiB request ring several times.
	val := bytes.Repeat([]byte("v"), 300)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 97 {
		v, found, err := cl.Get([]byte(fmt.Sprintf("user%08d", i)))
		if err != nil || !found || !bytes.Equal(v, val) {
			t.Fatalf("Get %d = %v, %v", i, found, err)
		}
	}
}

// TestClientRingWrapsWithHeaderSizedExtents: a small request — a put of
// a 10-byte key and value, 28 payload bytes — takes one 64-byte header
// slot of the ring, so the ring's head — and the server's rendezvous
// position with it — reaches every slot, and a request of several slots
// finds 1, 2 or 3 of them left before the end. The residual is still
// filled exactly, by one NOOP: a header-only one for one slot, from 2
// slots up one with a payload (60 bytes and more, over InlineMax).
// Counted as the bytes each put brings into the server's NIC, on a ring
// of 11 slots the test walks a slot at a time.
func TestClientRingWrapsWithHeaderSizedExtents(t *testing.T) {
	const slots = 11
	srv, cl := newServerAndClientRing(t, slots*wire.HeaderSize)
	want := map[string][]byte{}
	head := 0 // the ring's, in slots: ops are synchronous, so it is known
	put := func(i, valueLen, wantSlots int) {
		t.Helper()
		k, v := fmt.Sprintf("user%06d", i), bytes.Repeat([]byte{byte('a' + i%26)}, valueLen)
		before := srv.Endpoint().RxBytes()
		if err := cl.Put([]byte(k), v); err != nil {
			t.Fatalf("Put %d at ring slot %d: %v", i, head, err)
		}
		if got := int(srv.Endpoint().RxBytes() - before); got != wantSlots*wire.HeaderSize {
			t.Fatalf("Put %d of %d value bytes at ring slot %d: %d bytes to the server, want %d slots", i, valueLen, head, got, wantSlots)
		}
		want[k] = v
	}
	n := 0
	for round := 0; round < 20; round++ {
		for _, tc := range []struct{ residual, valueLen, size int }{
			{2, 100, 3}, // one NOOP of 2 slots, with a payload
			{1, 100, 3}, // one header-only NOOP
			{3, 150, 4}, // one NOOP of 3 slots, with a payload
		} {
			for ; head != slots-tc.residual; head = (head + 1) % slots {
				put(n, 10, 1)
				n++
			}
			put(n, tc.valueLen, tc.residual+tc.size)
			n++
			head = tc.size
		}
	}
	for k, v := range want {
		if got, found, err := cl.Get([]byte(k)); err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("Get %s = %d bytes, %v, %v", k, len(got), found, err)
		}
	}
}

func TestClientScan(t *testing.T) {
	_, cl := newServerAndClient(t)
	for i := 0; i < 200; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("user%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := cl.Scan([]byte("user000050"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	if string(pairs[0].Key) != "user000050" || string(pairs[9].Key) != "user000059" {
		t.Fatalf("scan range %q..%q", pairs[0].Key, pairs[9].Key)
	}
	if string(pairs[3].Value) != "v53" {
		t.Fatalf("scan value = %q", pairs[3].Value)
	}
}

// A scan of zero pairs returns none; the server once handed over the
// first pair before it looked at the count.
func TestClientScanOfZeroPairsReturnsNone(t *testing.T) {
	_, cl := newServerAndClient(t)
	for i := 0; i < 20; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("user%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := cl.Scan([]byte("user000005"), 0)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("Scan(start, 0) = %d pairs, %v", len(pairs), err)
	}
	if pairs, err := cl.Scan([]byte("user000005"), 1); err != nil || len(pairs) != 1 || string(pairs[0].Key) != "user000005" {
		t.Fatalf("Scan(start, 1) = %v, %v", pairs, err)
	}
}

func TestClientConcurrent(t *testing.T) {
	_, cl := newServerAndClient(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := cl.Put(k, []byte("val")); err != nil {
					errs <- err
					return
				}
				if i%10 == 0 {
					if _, _, err := cl.Get(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		k := []byte(fmt.Sprintf("w%d-%06d", w, 299))
		if _, found, _ := cl.Get(k); !found {
			t.Fatalf("key %s lost", k)
		}
	}
}

func TestClientWrongRegionRefresh(t *testing.T) {
	// Server hosts only region 0 of a 2-region map, but the stale map
	// points both at s0; the refresh hands back a corrected map.
	dev, _ := storage.NewMemDevice(64<<10, 0)
	defer dev.Close()
	srv, err := server.New(server.Config{
		Name:     "s0",
		Device:   dev,
		Endpoint: rdma.NewEndpoint("s0"),
		LSM:      lsm.Options{NodeSize: 512, L0MaxKeys: 512, MaxLevels: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rmap, _ := region.Partition(2, []string{"s0"}, 0)
	// Host only region 0; region 1 requests will get wrong-region.
	if _, err := srv.OpenPrimary(rmap.Regions[0], replica.NoReplication); err != nil {
		t.Fatal(err)
	}

	refreshed := false
	cl, err := New(Config{
		Name:    "c",
		Servers: map[string]ServerHandle{"s0": srv},
		Map:     rmap,
		Refresh: func() (*region.Map, error) {
			refreshed = true
			// The "fixed" topology: one region covering everything.
			return region.Partition(1, []string{"s0"}, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A key in region 1's range: first attempt gets FlagWrongRegion,
	// the refresh redirects it into the single hosted region... which
	// after refresh is region 0 on s0 — but the server hosts region 0
	// with the ORIGINAL bounds, so the retried request carries region
	// ID 0 and succeeds.
	key := []byte{0xff, 0xff, 0x01}
	if err := cl.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatal("refresh never invoked")
	}
}

// TestADroppedRequestTimesOut: a request lost on the wire posts no
// completion, and the client waits for none; the reply deadline, counted
// from the wait's first sleep and checked at every sleep after it, ends
// the call with errReplyTimeout within 10 % of the bound.
func TestADroppedRequestTimesOut(t *testing.T) {
	defer func(d time.Duration) { replyTimeout = d }(replyTimeout)
	replyTimeout = 200 * time.Millisecond
	_, cl := newServerAndClient(t)
	cl.ep.InjectFault(func(op rdma.FaultOp, from, _ string, _ int, _ []byte) rdma.Fault {
		if op == rdma.FaultWrite && from == cl.ep.Name() {
			return rdma.Fault{Action: rdma.FaultDrop}
		}
		return rdma.Fault{}
	})
	rt, err := cl.route([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	sb := cl.sendBuf()
	req := wire.GetReq{Key: []byte("k")}
	sb.payload = req.Encode(sb.Reserve(req.Size()))
	start := time.Now()
	_, _, err = rt.conn.call(wire.OpGet, rt.id, rt.epoch, sb, 1024, 0, true)
	took := time.Since(start)
	if !errors.Is(err, errReplyTimeout) {
		t.Fatalf("a dropped request's call = %v, want errReplyTimeout", err)
	}
	if took < replyTimeout || took > replyTimeout*11/10 {
		t.Fatalf("the call gave up after %v, want %v to %v", took, replyTimeout, replyTimeout*11/10)
	}
}

func TestAsyncPipelining(t *testing.T) {
	_, cl := newServerAndClient(t)
	a := cl.Async(16)
	const n = 1500
	for i := 0; i < n; i++ {
		a.Put([]byte(fmt.Sprintf("async%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	reads := 0
	var mu sync.Mutex
	a2 := cl.Async(8)
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 50 {
		i := i
		a2.Get([]byte(fmt.Sprintf("async%06d", i)), func(v []byte, found bool) {
			mu.Lock()
			defer mu.Unlock()
			if found && string(v) == fmt.Sprintf("v%d", i) {
				reads++
			}
		})
	}
	// Issued behind the get of its key, so sent only once that get has
	// been answered.
	a2.Delete([]byte("async000000"))
	if err := a2.Wait(); err != nil {
		t.Fatal(err)
	}
	if reads != n/50 {
		t.Fatalf("async reads verified %d/%d", reads, n/50)
	}
	if _, found, _ := cl.Get([]byte("async000000")); found {
		t.Fatal("async delete did not apply")
	}
}

// TestAsyncKeepsPerKeyOrder: five ops on one key issued back to back in
// one window — two puts, a get, a delete, a get — take effect in the
// order they were issued: the first get sees the second put, the second
// get sees the delete. A window that raced them would, over 200 runs,
// answer some get out of turn.
func TestAsyncKeepsPerKeyOrder(t *testing.T) {
	_, cl := newServerAndClient(t)
	for run := 0; run < 200; run++ {
		key := []byte(fmt.Sprintf("order%03d", run))
		var (
			afterPuts, afterDelete []byte
			foundPut, foundDelete  bool
		)
		a := cl.Async(8)
		a.Put(key, []byte("v1"))
		a.Put(key, []byte("v2"))
		a.Get(key, func(v []byte, found bool) { afterPuts, foundPut = v, found })
		a.Delete(key)
		a.Get(key, func(v []byte, found bool) { afterDelete, foundDelete = v, found })
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		if !foundPut || string(afterPuts) != "v2" || foundDelete {
			t.Fatalf("run %d: the get after the puts saw %q (found %v), the get after the delete %q (found %v)",
				run, afterPuts, foundPut, afterDelete, foundDelete)
		}
	}
}

func TestAsyncBufferReuseSafe(t *testing.T) {
	_, cl := newServerAndClient(t)
	a := cl.Async(4)
	key := make([]byte, len("reuse000000"))
	val := make([]byte, len("v000000"))
	for i := 0; i < 200; i++ {
		copy(key, fmt.Sprintf("reuse%06d", i))
		copy(val, fmt.Sprintf("v%06d", i))
		a.Put(key, val) // caller reuses buffers immediately
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.Get([]byte("reuse000137"))
	if err != nil || !found || string(v) != "v000137" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
}

// TestRouteRacesRefreshAndClose: route reads the client's routing view
// with one atomic load while refreshMap publishes newer maps and Close
// closes the client (run it with -race). Every route finds the server's
// connection under a map no older than the last it saw, until the client
// is closed; from the route that sees the close on, every route fails
// with ErrClosed, and a refresh that lands after Close does not reopen
// the client.
func TestRouteRacesRefreshAndClose(t *testing.T) {
	_, cl := newServerAndClient(t)
	base := cl.Map()
	var version atomic.Uint64
	version.Store(base.Version)
	cl.cfg.Refresh = func() (*region.Map, error) {
		m := base.Clone()
		m.Version = version.Add(1)
		return m, nil
	}
	key := []byte("user000042")
	// A client that a refresh reopens would keep every loop below going:
	// they give up at the deadline instead.
	deadline := time.Now().Add(5 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for time.Now().Before(deadline) {
				rt, err := cl.route(key)
				if errors.Is(err, ErrClosed) {
					for i := 0; i < 100; i++ {
						if _, err := cl.route(key); !errors.Is(err, ErrClosed) {
							errs <- fmt.Errorf("a route after one saw the close: %v", err)
							return
						}
					}
					return
				}
				if err != nil || rt.conn == nil || rt.version < seen {
					errs <- fmt.Errorf("route = %+v, %v after map version %d", rt, err, seen)
					return
				}
				seen = rt.version
			}
			errs <- fmt.Errorf("no route saw the close by the deadline")
		}()
	}
	// The refresher runs until it has refreshed past the close.
	refreshed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, after := 0, 0; after < 10 && time.Now().Before(deadline); i++ {
			if i == 100 {
				close(refreshed)
			}
			if _, err := cl.route(key); errors.Is(err, ErrClosed) {
				after++
			}
			if err := cl.refreshMap(cl.Map().Version); err != nil {
				errs <- err
				return
			}
		}
	}()
	<-refreshed
	cl.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := cl.refreshMap(cl.Map().Version); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.route(key); !errors.Is(err, ErrClosed) {
		t.Fatalf("route after Close and later refreshes: %v", err)
	}
	if v := cl.Map().Version; v <= base.Version {
		t.Fatalf("map version %d after refreshes from %d", v, base.Version)
	}
}
