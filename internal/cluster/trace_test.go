package cluster

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// TestRequestTraceFanOut is the request-tracing acceptance test: one
// sampled put against a 1-primary/2-backup Send-Index cluster must
// yield a trace whose client, server-dispatch, primary-apply, and
// per-backup ship/ack spans all share one request ID — the full
// replication fan-out of a single op on one Chrome trace row.
func TestRequestTraceFanOut(t *testing.T) {
	cfg := testConfig(replica.SendIndex, 2)
	cfg.Trace = obs.NewTracer(0)
	cfg.TraceSampleRate = 1 // sample every op
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put([]byte("trace-me-0001"), []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Collect the request spans; exactly one trace ID must appear.
	byName := map[string]int{}
	backups := map[string]bool{}
	var req uint64
	for _, s := range cfg.Trace.Snapshot() {
		if s.Cat != "request" {
			continue
		}
		if s.Req == 0 {
			t.Fatalf("request span %q has no trace ID", s.Name)
		}
		if req == 0 {
			req = s.Req
		}
		if s.Req != req {
			t.Fatalf("span %q has trace ID %#x, want %#x", s.Name, s.Req, req)
		}
		byName[s.Name]++
		if s.Name == "ship" || s.Name == "ack" {
			if s.Backup == "" {
				t.Fatalf("%s span names no backup", s.Name)
			}
			backups[s.Backup] = true
		}
	}
	if req == 0 {
		t.Fatal("no request spans recorded")
	}
	if byName["put"] != 1 {
		t.Fatalf("client put spans = %d, want 1", byName["put"])
	}
	if byName["dispatch"] != 1 {
		t.Fatalf("dispatch spans = %d, want 1", byName["dispatch"])
	}
	if byName["apply"] != 1 {
		t.Fatalf("apply spans = %d, want 1", byName["apply"])
	}
	if byName["ship"] != 2 || byName["ack"] != 2 {
		t.Fatalf("ship/ack spans = %d/%d, want 2/2 (one per backup)",
			byName["ship"], byName["ack"])
	}
	if len(backups) != 2 {
		t.Fatalf("ship/ack spans covered backups %v, want both", backups)
	}

	// The Chrome export threads all of them onto the request's row.
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	// Trace IDs use the full 64 bits; decode numbers as json.Number so
	// the comparison is not truncated through float64.
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(req, 10)
	rows := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if r, ok := e.Args["req"].(json.Number); ok && r.String() == want {
			if e.Tid != req {
				t.Errorf("span %q tid = %d, want request ID %d", e.Name, e.Tid, req)
			}
			rows[e.Name]++
		}
	}
	for _, name := range []string{"put", "dispatch", "apply", "ship", "ack"} {
		if rows[name] == 0 {
			t.Errorf("Chrome export missing %q span for request %#x", name, req)
		}
	}
}

// TestTraceIDRidesAheadOfThePayload: a request carries no trace ID in
// its header; a sampled one carries it ahead of its payload
// (wire.FlagTraced), inline or behind the header. Each sampled op — an S
// get and a get of a 24-byte key, whose key and prefix ride inside the
// header line, a put of a 24-byte key and a 9-byte value, exactly
// InlineMax, whose prefix pushes it out of line, and an M put — arrives
// with the client's trace ID: the server's dispatch span is recorded
// under the ID of the client's span, the dispatch stage retains it as an
// exemplar, and the op's payload reaches the engine whole.
func TestTraceIDRidesAheadOfThePayload(t *testing.T) {
	cfg := testConfig(replica.SendIndex, 0)
	cfg.Trace = obs.NewTracer(0)
	cfg.TraceSampleRate = 1 // sample every op
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sKey, mKey, longKey := []byte("user000032"), []byte("user000064"), []byte("user6284781860667377211x")
	mVal := bytes.Repeat([]byte("m"), 113)
	for _, k := range [][]byte{sKey, longKey} {
		if err := cl.Put(k, bytes.Repeat([]byte("s"), 23)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(wire.GetReq{Key: sKey}.Encode(nil)) + wire.TracePrefix; n > wire.InlineMax {
		t.Fatalf("a traced S get is %d bytes, not inline", n)
	}
	if n := len(wire.GetReq{Key: longKey}.Encode(nil)) + wire.TracePrefix; n > wire.InlineMax {
		t.Fatalf("a traced get of a 24-byte key is %d bytes, not inline", n)
	}
	sPutVal := bytes.Repeat([]byte("p"), 9)
	if n := len(wire.PutReq{Key: longKey, Value: sPutVal}.Encode(nil)); n != wire.InlineMax {
		t.Fatalf("a put of a 24-byte key and a 9-byte value is %d bytes, want InlineMax", n)
	}
	for _, tc := range []struct {
		name, span string
		op         func() error
	}{
		{"S get", "get", func() error {
			v, found, err := cl.Get(sKey)
			if err == nil && (!found || len(v) != 23) {
				t.Errorf("S get: %d bytes, found %v", len(v), found)
			}
			return err
		}},
		{"get of a 24-byte key", "get", func() error {
			v, found, err := cl.Get(longKey)
			if err == nil && (!found || len(v) != 23) {
				t.Errorf("24-byte-key get: %d bytes, found %v", len(v), found)
			}
			return err
		}},
		{"S put of a 24-byte key", "put", func() error { return cl.Put(longKey, sPutVal) }},
		{"M put", "put", func() error { return cl.Put(mKey, mVal) }},
	} {
		before := len(cfg.Trace.Snapshot())
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var client uint64
		dispatch := map[uint64]bool{}
		for _, s := range cfg.Trace.Snapshot()[before:] {
			switch {
			case s.Cat == "request" && s.Name == tc.span:
				client = s.Req
			case s.Cat == "request" && s.Name == "dispatch":
				dispatch[s.Req] = true
			}
		}
		if client == 0 || !dispatch[client] || len(dispatch) != 1 {
			t.Fatalf("%s: client span under trace ID %#x, dispatch spans under %v", tc.name, client, dispatch)
		}
		exemplar := false
		for _, snap := range c.Stages().Snapshot() {
			for _, ex := range snap.Exemplars {
				exemplar = exemplar || snap.Stage == metrics.StageDispatch && ex.TraceID == client
			}
		}
		if !exemplar {
			t.Fatalf("%s: the dispatch stage retains no exemplar of trace ID %#x", tc.name, client)
		}
	}
	if v, found, err := cl.Get(mKey); err != nil || !found || !bytes.Equal(v, mVal) {
		t.Fatalf("the traced M put stored %d bytes, %v, %v", len(v), found, err)
	}
	if v, found, err := cl.Get(longKey); err != nil || !found || !bytes.Equal(v, sPutVal) {
		t.Fatalf("the traced S put stored %q, %v, %v", v, found, err)
	}
}

// TestRequestTraceSampling: at a 1/N sample rate only every N-th op is
// traced, and unsampled ops leave no request spans behind.
func TestRequestTraceSampling(t *testing.T) {
	cfg := testConfig(replica.SendIndex, 1)
	cfg.Trace = obs.NewTracer(0)
	cfg.TraceSampleRate = 1.0 / 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 64
	for i := 0; i < n; i++ {
		key := []byte{byte('a' + i%26), byte('0' + i%10), 'k', 'e', 'y', byte(i)}
		if err := cl.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	ids := map[uint64]bool{}
	var clientSpans int
	for _, s := range cfg.Trace.Snapshot() {
		if s.Cat != "request" {
			continue
		}
		ids[s.Req] = true
		if s.Name == "put" {
			clientSpans++
		}
	}
	if clientSpans != n/8 {
		t.Fatalf("client spans = %d, want %d (1/8 of %d ops)", clientSpans, n/8, n)
	}
	if len(ids) != n/8 {
		t.Fatalf("distinct trace IDs = %d, want %d", len(ids), n/8)
	}
}
