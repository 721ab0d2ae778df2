package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tebis/internal/client"
	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/rdma"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// steadyCluster returns a client of a Send-Index cluster with the given
// number of backups, sized so that nothing but the request path runs
// while a test measures it: one region whose L0 and log tail are far
// larger than what the test writes, so no put freezes a memtable, seals
// a segment or starts a compaction.
func steadyCluster(t *testing.T, replicas int) (*Cluster, *client.Client) {
	t.Helper()
	c, err := New(Config{
		Servers:     1 + replicas,
		Regions:     1,
		Replicas:    replicas,
		Mode:        replica.SendIndex,
		SegmentSize: 1 << 20,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    1 << 16,
			MaxLevels:    4,
		},
		Workers:     2,
		SpinThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return c, cl
}

// TestRequestPathAllocCeilings pins what one steady-state round trip —
// client → wire → rdma → spinning thread → worker → engine → replica
// append → reply — costs the heap. AllocsPerRun counts mallocs of the
// whole process, so the spinning threads, the workers and the backup
// are inside each number. The rule (DESIGN.md "Data path"): every
// message is built and read in buffers that already exist, and a record
// a read returns is read from the log once, into the reply it leaves
// in. So the only allocation an op makes anywhere is the slice it hands
// back to its caller, and a put hands back nothing.
func TestRequestPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	c, cl := steadyCluster(t, 1)
	value := bytes.Repeat([]byte("v"), 100)
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }
	for i := 0; i < 64; i++ {
		if err := cl.Put(key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	k := key(32)
	get := func() {
		if v, found, err := cl.Get(k); err != nil || !found || !bytes.Equal(v, value) {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
		}
	}
	// Scan(start, 16): on the client the reply payload and the pair
	// slice whose keys and values point into it; in the engine nothing —
	// its cursors and the one buffer every record passes through are
	// pooled, and each pair is copied once, into the reply.
	start := key(16)
	scan := func() {
		pairs, err := cl.Scan(start, 16)
		if err != nil || len(pairs) != 16 {
			t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
		}
	}

	measure := func(name string, ceiling float64, op func()) {
		t.Helper()
		op() // settle scratch buffers and the pools
		if got := testing.AllocsPerRun(200, op); got > ceiling {
			t.Errorf("a steady-state %s allocates %v times, ceiling %v", name, got, ceiling)
		} else {
			t.Logf("%s: %v allocs/op (ceiling %v)", name, got, ceiling)
		}
	}
	// Nothing: the request is encoded in a pooled send buffer, its body
	// lands in a recycled task body, the record goes into the log tail,
	// the overwritten record's header is read through the engine's own
	// scratch, the replica append is a one-sided write out of the tail,
	// and the reply is a status byte the client never copies out.
	measure("put", 0, func() {
		if err := cl.Put(k, value); err != nil {
			t.Fatal(err)
		}
	})
	// Nothing for a key's first put either: L0 copies the key into its
	// arena and shifts slots in a block. The table's own growth — a slab
	// per 8 blocks, a chunk per 16 KB of keys — is a few allocations over
	// the whole run, which AllocsPerRun's integer average leaves out.
	fresh := make([][]byte, 0, 256)
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, key(500000+i*7919%1000))
	}
	measure("put of a new key", 0, func() {
		if err := cl.Put(fresh[0], value); err != nil {
			t.Fatal(err)
		}
		fresh = fresh[1:]
	})
	// The reply payload the client copies out of its reply slot once and
	// returns the value from. The engine read the value straight into
	// the worker's reply message.
	measure("get", 1, get)
	measure("scan", 2, scan)
	// The same from the levels: a prefix tie's candidate key goes through
	// pooled scratch, and the scan's tree cursors and iterators are
	// pooled with it.
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	measure("level-resident get", 1, get)
	measure("level-resident scan", 2, scan)
}

// TestRequestPathWireBytes counts what one round trip puts on the
// server's NIC, with no backup so that nothing else crosses it. A
// request is a 64-byte line too (DESIGN.md "Data path"): a payload of at
// most wire.InlineMax (34) bytes rides inside it — a put of a 24-byte key
// and a 9-byte value, its key behind a one-byte length and its value
// running to the payload's end — and a larger one follows it, padded to
// 64-byte lines. So an S put (34 bytes, with the benchmark's 24-byte key
// or a 10-byte one) is one line, an M put (124 bytes) three, and a scan of
// a 24-byte key (26 bytes) one. A reply is a 64-byte line, a payload of at
// most wire.ReplyInlineMax bytes inside it — the status that answers any
// put, a small get's value — and a larger one behind it, padded to 64-byte
// lines. Byte counters, exact: a message that stops going inline, a
// request that grows a header field or a length, or one message sent in
// the other's shape turns one of these red.
func TestRequestPathWireBytes(t *testing.T) {
	c, cl := steadyCluster(t, 0)
	net := func(op func()) uint64 {
		t.Helper()
		before := c.Totals().NetServerBytes
		op()
		return c.Totals().NetServerBytes - before
	}
	put := func(k, v []byte) func() {
		return func() {
			if err := cl.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	get := func(k, want []byte) func() {
		return func() {
			if v, found, err := cl.Get(k); err != nil || !found || !bytes.Equal(v, want) {
				t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
			}
		}
	}
	scan := func(start []byte) func() {
		return func() {
			if pairs, err := cl.Scan(start, 16); err != nil || len(pairs) == 0 {
				t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
			}
		}
	}
	// The benchmark's S and M pairs: a 24-byte ycsb key and 9 or 99 bytes
	// of value, 33 and 123 bytes a pair.
	yKey := []byte("user6284781860667377211x")
	ySVal, yMVal := bytes.Repeat([]byte("s"), 9), bytes.Repeat([]byte("m"), 99)
	// The same sizes with a 10-byte key: 33 bytes of key and value, and 123.
	sKey, sVal := []byte("user000032"), bytes.Repeat([]byte("s"), 23)
	mKey, mVal := []byte("user000064"), bytes.Repeat([]byte("m"), 113)
	for _, tc := range []struct {
		name string
		op   func()
		want uint64
	}{
		{"S put", put(sKey, sVal), 64 + 64},
		{"S get", get(sKey, sVal), 64 + 64},
		{"M put", put(mKey, mVal), 192 + 64},
		{"M get", get(mKey, mVal), 64 + 192},
		{"S put again", put(sKey, sVal), 64 + 64},
		{"benchmark S put", put(yKey, ySVal), 64 + 64},
		{"benchmark M put", put(yKey, yMVal), 192 + 64},
		{"benchmark S put again", put(yKey, ySVal), 64 + 64},
	} {
		if got := net(tc.op); got != tc.want {
			t.Errorf("%s: %d bytes through the server's NIC, want %d", tc.name, got, tc.want)
		}
	}
	// A scan's reply is as long as what it found; its request, the
	// server's receive side, is one line.
	reqBefore := c.Nodes["s0"].Server.Endpoint().RxBytes()
	scan(yKey)()
	if got := c.Nodes["s0"].Server.Endpoint().RxBytes() - reqBefore; got != 64 {
		t.Errorf("benchmark scan: a %d-byte request, want 64", got)
	}
}

// TestGetRestReadsTheRangeOnly: a value larger than the client's reply
// slot crosses in pieces (§3.4.1), and each piece reads its own bytes
// from the device — the slot's worth for the get, the rest for the
// get-rest — not the whole value once per round trip.
func TestGetRestReadsTheRangeOnly(t *testing.T) {
	c, cl := steadyCluster(t, 1)
	key, value := []byte("big"), make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(value)
	if err := cl.Put(key, value); err != nil {
		t.Fatal(err)
	}
	// Seal the log tail the value sits in: a read served from the tail's
	// memory is not device traffic.
	filler := make([]byte, 64<<10)
	for i := 0; i < 16; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("filler%02d", i)), filler); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := c.NewClient() // its slot estimate is the 1 KB default
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	before := c.Totals().DeviceReadBytes
	got, found, err := fresh.Get(key)
	if err != nil || !found || !bytes.Equal(got, value) {
		t.Fatalf("Get = %d bytes, %v, %v", len(got), found, err)
	}
	// Two round trips, a record header each, and every value byte once.
	if read := c.Totals().DeviceReadBytes - before; read < uint64(len(value)) || read > uint64(len(value))+2*8 {
		t.Fatalf("a %d byte value fetched through a 1 KB slot read %d bytes from the device", len(value), read)
	}
}

// TestGrownSlotHoldsALongerValue: a get that went partial grows the
// client's slot estimate to the value and 192 bytes more — as much room
// past the value as a slot had when a reply took a 128-byte header — so
// a later get of a value up to 183 bytes longer (192 less the reply's
// prefix) is whole, in one round trip. Get-rests counted on the server's
// NIC.
func TestGrownSlotHoldsALongerValue(t *testing.T) {
	c, cl := steadyCluster(t, 0)
	var rests atomic.Int64
	for _, n := range c.Nodes {
		n.Server.Endpoint().InjectFault(func(_ rdma.FaultOp, _, _ string, _ int, p []byte) rdma.Fault {
			if h, err := wire.DecodeHeader(p); err == nil && h.Opcode == wire.OpGetRest {
				rests.Add(1)
			}
			return rdma.Fault{}
		})
	}
	for _, size := range []int{1000, 1500, 5000} {
		short, long := []byte(fmt.Sprintf("short%d", size)), []byte(fmt.Sprintf("long%d", size))
		if err := cl.Put(short, bytes.Repeat([]byte("s"), size)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Put(long, bytes.Repeat([]byte("l"), size+192-wire.GetReplyPrefix)); err != nil {
			t.Fatal(err)
		}
		fresh, err := c.NewClient() // its slot estimate is the 1 KB default
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range [][]byte{short, long} {
			before := rests.Load()
			if _, found, err := fresh.Get(key); err != nil || !found {
				t.Fatalf("Get %s: %v, %v", key, found, err)
			}
			if got, want := rests.Load()-before, int64(1-i); got != want {
				t.Errorf("Get %s after a %d-byte value grew the slot: %d get-rests, want %d", key, size, got, want)
			}
		}
		fresh.Close()
	}
}

// TestReturnedSlicesAreTheCallers is the ownership half of the rule:
// goroutines sharing one Client — some through Async — put, get and scan
// values of mixed sizes, retain every slice the client returned, and
// re-verify all of them byte for byte once the traffic is over. A value
// or pair that aliases a pooled send buffer, a worker's reply scratch, a
// registered reply slot or the engine's pooled read buffer is
// overwritten by a later op; a task body recycled before its reply was
// written corrupts the put that owned it. Either way a retained slice
// stops matching what was written.
//
// Small keys are overwritten, version after version, while they are
// read: a value names its version in its first byte and is a function
// of (key, version) from there on, so a get or a scan that races an
// overwrite must still return one whole version. Large keys hold one
// value each, above the default reply slot (a get that takes two round
// trips is not atomic against an overwrite, here or in the paper), and
// are fetched through clients new enough to still have the 1 KB slot,
// so the partial reply and the get-rest range read run throughout.
func TestReturnedSlicesAreTheCallers(t *testing.T) {
	c, cl := steadyCluster(t, 1)

	const (
		workers   = 4
		keys      = 48
		smallKeys = 32 // the rest are large
		versions  = 4
		rounds    = 300
	)
	valueOf := func(i, ver int) []byte {
		n := 1100 + (i*131)%2000 // above the default reply slot
		if i < smallKeys {
			n = 8 + (i*131+ver*57)%800
		}
		v := make([]byte, n)
		v[0] = byte(ver)
		for j := 1; j < n; j++ {
			v[j] = byte(i*31 + j*7 + ver*13)
		}
		return v
	}
	// intact reports whether v is one whole version of key i's value.
	intact := func(i int, v []byte) bool {
		return len(v) > 0 && int(v[0]) < versions && bytes.Equal(v, valueOf(i, int(v[0])))
	}
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("own%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := cl.Put(keyOf(i), valueOf(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	type kept struct {
		i   int
		val []byte
	}
	var (
		mu       sync.Mutex
		retained []kept
		pairs    []kv.Pair
	)
	keep := func(i int, v []byte) {
		mu.Lock()
		retained = append(retained, kept{i, v})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			async := cl.Async(8)
			for r := 0; r < rounds; r++ {
				i := rng.Intn(keys)
				ver := 0
				if i < smallKeys {
					ver = rng.Intn(versions)
				}
				switch {
				case w%2 == 0 && r%3 == 0:
					async.Put(keyOf(i), valueOf(i, ver))
					async.Get(keyOf(i), func(v []byte, found bool) {
						if !found {
							t.Errorf("async get: key %d missing", i)
						}
						keep(i, v)
					})
				case r%3 == 1:
					if err := cl.Put(keyOf(i), valueOf(i, ver)); err != nil {
						t.Errorf("put: %v", err)
					}
				case r%3 == 2:
					ps, err := cl.Scan(keyOf(i), 6)
					if err != nil {
						t.Errorf("scan: %v", err)
					}
					mu.Lock()
					pairs = append(pairs, ps...)
					mu.Unlock()
				case r%12 == 0:
					// A large value through a 1 KB slot: a partial reply,
					// then the rest.
					big := smallKeys + rng.Intn(keys-smallKeys)
					fresh, err := c.NewClient()
					if err != nil {
						t.Errorf("new client: %v", err)
						continue
					}
					v, found, err := fresh.Get(keyOf(big))
					fresh.Close()
					if err != nil || !found {
						t.Errorf("get large key %d: found=%v err=%v", big, found, err)
					}
					keep(big, v)
				default:
					v, found, err := cl.Get(keyOf(i))
					if err != nil || !found {
						t.Errorf("get key %d: found=%v err=%v", i, found, err)
					}
					keep(i, v)
				}
			}
			if err := async.Wait(); err != nil {
				t.Errorf("async: %v", err)
			}
		}(w)
	}
	wg.Wait()

	if len(retained) == 0 || len(pairs) == 0 {
		t.Fatalf("retained %d values and %d pairs; the test lost its premise", len(retained), len(pairs))
	}
	for _, k := range retained {
		if !intact(k.i, k.val) {
			t.Fatalf("a retained value of key %d is no version of it: torn by an overwrite when it was read, or changed after Get returned it because the slice aliases a reused buffer", k.i)
		}
	}
	for _, p := range pairs {
		var i int
		if _, err := fmt.Sscanf(string(p.Key), "own%04d", &i); err != nil {
			t.Fatalf("a retained scan key %q changed after Scan returned it", p.Key)
		}
		if !intact(i, p.Value) {
			t.Fatalf("a retained scan value of key %d is no version of it", i)
		}
	}
}
