package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
)

func TestPaddedPayloadSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0},
		{1, 128},     // one slot: no minimum payload
		{124, 128},   // 124+4 = 128 exactly
		{125, 256},   // spills into a second slot
		{200, 256},   // two slots
		{252, 256},   // fits with trailer
		{253, 384},   // 253+4 > 256 → next multiple of 128
		{256, 384},   // needs trailer room
		{380, 384},   // 380+4 = 384 exactly
		{381, 512},   // spills
		{1000, 1024}, // 1000+4 → 1024
		{1021, 1152}, // 1021+4 > 1024
	}
	for _, c := range cases {
		if got := PaddedPayloadSize(c.in); got != c.want {
			t.Errorf("PaddedPayloadSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPaddedPayloadInvariants(t *testing.T) {
	f := func(n uint16) bool {
		p := PaddedPayloadSize(int(n))
		if n == 0 {
			return p == 0
		}
		// The smallest multiple of the header size that fits payload +
		// trailer.
		return p%HeaderSize == 0 && p >= int(n)+4 && p < int(n)+4+HeaderSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		PayloadSize: 77,
		Opcode:      OpGet,
		Flags:       FlagPartial | FlagError,
		RegionID:    42,
		RequestID:   0xdeadbeefcafe,
		ReplyOffset: 4096,
		ReplySize:   512,
	}
	buf := make([]byte, HeaderSize)
	if err := EncodeHeader(buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip = %+v, want %+v", got, h)
	}
}

func TestDecodeHeaderRejectsBadMagic(t *testing.T) {
	buf := make([]byte, HeaderSize)
	if _, err := DecodeHeader(buf); err != ErrBadMagic {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("payload!"), 40) // 320 bytes
	buf := make([]byte, MessageSize(len(payload)))
	h := Header{Opcode: OpPut, RegionID: 3, RequestID: 9}
	n, err := EncodeMessage(buf, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != MessageSize(len(payload)) {
		t.Fatalf("encoded %d bytes, want %d", n, MessageSize(len(payload)))
	}
	if !PayloadArrived(buf, len(payload)) {
		t.Fatal("PayloadArrived = false")
	}
	gh, gp, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Opcode != OpPut || gh.PayloadSize != uint32(len(payload)) {
		t.Fatalf("header = %+v", gh)
	}
	if !bytes.Equal(gp, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestHeaderOnlyMessage(t *testing.T) {
	buf := make([]byte, HeaderSize)
	n, err := EncodeMessage(buf, Header{Opcode: OpNoop}, nil)
	if err != nil || n != HeaderSize {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !PayloadArrived(buf, 0) {
		t.Fatal("zero payload should be complete with header")
	}
	h, p, err := DecodeMessage(buf)
	if err != nil || h.Opcode != OpNoop || len(p) != 0 {
		t.Fatalf("decode = %+v %q %v", h, p, err)
	}
}

func TestPartialPayloadNotArrived(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 300)
	full := make([]byte, MessageSize(len(payload)))
	if _, err := EncodeMessage(full, Header{Opcode: OpPut}, payload); err != nil {
		t.Fatal(err)
	}
	// Simulate torn delivery: header present, trailer missing.
	torn := append([]byte(nil), full...)
	for i := len(torn) - 4; i < len(torn); i++ {
		torn[i] = 0
	}
	if PayloadArrived(torn, len(payload)) {
		t.Fatal("trailer missing but PayloadArrived = true")
	}
	if _, _, err := DecodeMessage(torn); err == nil {
		t.Fatal("DecodeMessage should fail on torn message")
	}
}

func TestPutReqRoundTrip(t *testing.T) {
	r := PutReq{Key: []byte("key"), Value: []byte("value bytes")}
	got, err := DecodePutReq(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Value, r.Value) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestPutReqPropertyRoundTrip(t *testing.T) {
	f := func(key, value []byte) bool {
		got, err := DecodePutReq(PutReq{Key: key, Value: value}.Encode(nil))
		return err == nil && bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetReqAndRestRoundTrip(t *testing.T) {
	g, err := DecodeGetReq(GetReq{Key: []byte("abc")}.Encode(nil))
	if err != nil || string(g.Key) != "abc" {
		t.Fatalf("get = %+v %v", g, err)
	}
	rr, err := DecodeGetRestReq(GetRestReq{Key: []byte("abc"), Offset: 512}.Encode(nil))
	if err != nil || string(rr.Key) != "abc" || rr.Offset != 512 {
		t.Fatalf("rest = %+v %v", rr, err)
	}
}

func TestScanRoundTrip(t *testing.T) {
	r, err := DecodeScanReq(ScanReq{Start: []byte("s"), Count: 99}.Encode(nil))
	if err != nil || string(r.Start) != "s" || r.Count != 99 {
		t.Fatalf("scan = %+v %v", r, err)
	}
	rep := ScanReply{Pairs: []kv.Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}}
	got, err := DecodeScanReply(rep.Encode(nil))
	if err != nil || len(got.Pairs) != 2 || string(got.Pairs[1].Value) != "2" {
		t.Fatalf("scan reply = %+v %v", got, err)
	}
}

func TestGetReplyRoundTrip(t *testing.T) {
	r := GetReply{Found: true, TotalSize: 1000, Value: bytes.Repeat([]byte{7}, 100)}
	got, err := DecodeGetReply(r.Encode(nil))
	if err != nil || !got.Found || got.TotalSize != 1000 || len(got.Value) != 100 {
		t.Fatalf("get reply = %+v %v", got, err)
	}
	miss, err := DecodeGetReply(GetReply{}.Encode(nil))
	if err != nil || miss.Found {
		t.Fatalf("miss = %+v %v", miss, err)
	}
}

func TestStatusReplyRoundTrip(t *testing.T) {
	got, err := DecodeStatusReply(StatusReply{Status: 3}.Encode(nil))
	if err != nil || got.Status != 3 {
		t.Fatalf("status = %+v %v", got, err)
	}
}

func TestControlPayloadsRoundTrip(t *testing.T) {
	ft, err := DecodeFlushTail(FlushTail{RegionID: 5, PrimarySeg: 77}.Encode(nil))
	if err != nil || ft.RegionID != 5 || ft.PrimarySeg != 77 {
		t.Fatalf("flush = %+v %v", ft, err)
	}
	for _, filter := range []bool{false, true} {
		cs, err := DecodeCompactionStart(CompactionStart{
			RegionID: 9, JobID: 1<<62 + 5, SrcLevel: 1, DstLevel: 2, Filter: filter,
		}.Encode(nil))
		if err != nil || cs.RegionID != 9 || cs.JobID != 1<<62+5 || cs.SrcLevel != 1 || cs.DstLevel != 2 || cs.Filter != filter {
			t.Fatalf("compaction start = %+v %v", cs, err)
		}
	}
	is, err := DecodeIndexSegment(IndexSegment{
		RegionID: 9, JobID: 41, DstLevel: 2, PrimarySeg: 33, DataLen: 4096,
	}.Encode(nil))
	if err != nil || is.JobID != 41 || is.DstLevel != 2 || is.PrimarySeg != 33 || is.DataLen != 4096 {
		t.Fatalf("index segment = %+v %v", is, err)
	}
	for _, moved := range []bool{false, true} {
		want := CompactionDone{
			RegionID: 9, JobID: 41, SrcLevel: 1, DstLevel: 2, Root: 1 << 40, NumKeys: 12345, Watermark: 1 << 33, Moved: moved,
		}
		cd, err := DecodeCompactionDone(want.Encode(nil))
		if err != nil || cd != want {
			t.Fatalf("done = %+v %v, want %+v", cd, err, want)
		}
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := PutReq{Key: []byte("abc"), Value: []byte("defg")}.Encode(nil)
	for i := 0; i < len(full); i++ {
		if _, err := DecodePutReq(full[:i]); err == nil {
			t.Fatalf("truncated put at %d decoded", i)
		}
	}
	fullCD := CompactionDone{RegionID: 1, JobID: 3, Root: 7}.Encode(nil)
	for i := 0; i < len(fullCD); i++ {
		if _, err := DecodeCompactionDone(fullCD[:i]); err == nil {
			t.Fatalf("truncated done at %d decoded", i)
		}
	}
	fullCS := CompactionStart{RegionID: 1, JobID: 3, SrcLevel: 0, DstLevel: 1}.Encode(nil)
	for i := 0; i < len(fullCS); i++ {
		if _, err := DecodeCompactionStart(fullCS[:i]); err == nil {
			t.Fatalf("truncated start at %d decoded", i)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for o := OpInvalid; o <= OpGCReleaseAck; o++ {
		if o.String() == "" {
			t.Fatalf("op %d has empty name", o)
		}
	}
}

// TestRetiredOpNames: a retired opcode keeps its number and is named
// for it, and the opcodes after the gaps keep their names.
func TestRetiredOpNames(t *testing.T) {
	for _, o := range []Op{21, 22, 25, 26, 27, 28, 29, 30} {
		if want := fmt.Sprintf("reserved-%d", o); o.String() != want {
			t.Errorf("op %d is named %q, want %q", o, o.String(), want)
		}
	}
	if OpSyncTailAck.String() != "sync-tail-ack" || OpGCRelease.String() != "gc-release" || OpGCReleaseAck.String() != "gc-release-ack" {
		t.Errorf("ops named %q, %q, %q", OpSyncTailAck, OpGCRelease, OpGCReleaseAck)
	}
}

// TestDecodeRobustnessRandomBytes: no decoder may panic or read out of
// bounds on arbitrary input (the spinning thread parses memory a remote
// peer wrote).
func TestDecodeRobustnessRandomBytes(t *testing.T) {
	rnd := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 5000; trial++ {
		n := rnd.Intn(1024)
		buf := make([]byte, n)
		rnd.Read(buf)
		// Occasionally plant a valid magic so header parsing proceeds
		// deeper.
		if n >= HeaderSize && trial%3 == 0 {
			binary.LittleEndian.PutUint32(buf[HeaderSize-4:HeaderSize], Magic)
		}
		_, _, _ = DecodeMessage(buf)
		_, _ = DecodeHeader(buf)
		_ = PayloadArrived(buf, rnd.Intn(4096))
		_, _ = DecodePutReq(buf)
		_, _ = DecodeGetReq(buf)
		_, _ = DecodeGetRestReq(buf)
		_, _ = DecodeScanReq(buf)
		_, _ = DecodeGetReply(buf)
		_, _ = DecodeScanReply(buf)
		_, _ = DecodeStatusReply(buf)
		_, _ = DecodeFlushTail(buf)
		_, _ = DecodeCompactionStart(buf)
		_, _ = DecodeIndexSegment(buf)
		_, _ = DecodeCompactionDone(buf)
		_, _ = DecodeGCRelease(buf)
	}
}

func TestHeaderTraceIDRoundTrip(t *testing.T) {
	h := Header{
		PayloadSize: 12,
		Opcode:      OpPut,
		RegionID:    7,
		RequestID:   99,
		TraceID:     0x1122334455667788,
	}
	buf := make([]byte, HeaderSize)
	if err := EncodeHeader(buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip = %+v, want %+v", got, h)
	}
	if id := binary.LittleEndian.Uint64(buf[24:32]); id != h.TraceID {
		t.Fatalf("trace ID encoded at [24:32] = %#x, want %#x", id, h.TraceID)
	}
}

// TestTraceIDFrameCompat pins the wire-compatibility argument for the
// trace-context header field: it lives in bytes the old format left
// zero, so old-format frames decode as unsampled (TraceID 0) and
// new-format frames differ from old ones only in bytes an old decoder
// never read.
func TestTraceIDFrameCompat(t *testing.T) {
	h := Header{
		PayloadSize: 300,
		Opcode:      OpGet,
		Flags:       FlagPartial,
		RegionID:    11,
		RequestID:   0xfeedface,
		ReplyOffset: 2048,
		ReplySize:   256,
	}

	// Backward: an old-format frame (trace bytes zero) decodes on the
	// new side with TraceID 0 and every other field intact.
	old := make([]byte, HeaderSize)
	if err := EncodeHeader(old, h); err != nil {
		t.Fatal(err)
	}
	for i := 24; i < 32; i++ {
		old[i] = 0 // what a pre-trace encoder wrote
	}
	got, err := DecodeHeader(old)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 {
		t.Fatalf("old frame decoded TraceID %#x, want 0", got.TraceID)
	}
	if got != h {
		t.Fatalf("old frame decode = %+v, want %+v", got, h)
	}

	// Forward: a new frame carrying a trace ID differs from the old
	// encoding only inside [24:32), so an old decoder (which never reads
	// those bytes) sees an identical header.
	traced := h
	traced.TraceID = 0xabcdef
	neu := make([]byte, HeaderSize)
	if err := EncodeHeader(neu, traced); err != nil {
		t.Fatal(err)
	}
	for i := range neu {
		if i >= 24 && i < 32 {
			continue
		}
		if neu[i] != old[i] {
			t.Fatalf("traced frame differs from old frame at byte %d (%#x vs %#x)",
				i, neu[i], old[i])
		}
	}
	// And a sampled frame still round-trips all legacy fields.
	got, err = DecodeHeader(neu)
	if err != nil {
		t.Fatal(err)
	}
	if got != traced {
		t.Fatalf("traced decode = %+v, want %+v", got, traced)
	}
}

func TestGCReleaseRoundTrip(t *testing.T) {
	got, err := DecodeGCRelease(GCRelease{RegionID: 7, Segs: []uint32{3, 1 << 20, 9}}.Encode(nil))
	if err != nil || got.RegionID != 7 || !slices.Equal(got.Segs, []uint32{3, 1 << 20, 9}) {
		t.Fatalf("release = %+v %v", got, err)
	}
	// Opcodes 21 and 22 (the retired head-trim command) stay reserved,
	// so everything declared after them keeps its wire value.
	if OpSyncTail != 23 || OpGCRelease != 31 || OpGCReleaseAck != 32 {
		t.Fatalf("opcodes renumbered: sync-tail=%d gc-release=%d gc-release-ack=%d",
			OpSyncTail, OpGCRelease, OpGCReleaseAck)
	}
}

func TestHeaderEpochRoundTrip(t *testing.T) {
	h := Header{
		PayloadSize: 8,
		Opcode:      OpPut,
		Flags:       FlagWrongRegion | FlagWrongEpoch,
		RegionID:    5,
		RequestID:   123,
		Epoch:       0xa1b2c3d4,
	}
	buf := make([]byte, HeaderSize)
	if err := EncodeHeader(buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip = %+v, want %+v", got, h)
	}
	if e := binary.LittleEndian.Uint32(buf[32:36]); e != h.Epoch {
		t.Fatalf("epoch encoded at [32:36] = %#x, want %#x", e, h.Epoch)
	}
	// Epoch 0 (old encoders) must survive as "unchecked".
	buf2 := make([]byte, HeaderSize)
	if err := EncodeHeader(buf2, Header{Opcode: OpGet, RequestID: 1}); err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeHeader(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Epoch != 0 {
		t.Fatalf("zero epoch decoded as %d", got2.Epoch)
	}
}

// TestTenantPriorityFrameCompat pins the wire-compatibility argument
// for the tenant and priority header bytes: they live at [36] and [37],
// bytes the old format left zero, so old frames decode as tenant 0 /
// priority 0 (the default tenant in the lowest admission class) and new
// frames differ from old ones only in bytes an old decoder never read.
func TestTenantPriorityFrameCompat(t *testing.T) {
	h := Header{
		PayloadSize: 300,
		Opcode:      OpPut,
		RegionID:    4,
		RequestID:   0xcafe,
		TraceID:     0x42,
		Epoch:       9,
	}

	// Backward: an old frame (tenant/priority bytes zero) decodes with
	// the defaults and every other field intact.
	old := make([]byte, HeaderSize)
	if err := EncodeHeader(old, h); err != nil {
		t.Fatal(err)
	}
	old[36], old[37] = 0, 0 // what a pre-tenant encoder wrote
	got, err := DecodeHeader(old)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != 0 || got.Priority != 0 {
		t.Fatalf("old frame decoded tenant/priority %d/%d, want 0/0", got.Tenant, got.Priority)
	}
	if got != h {
		t.Fatalf("old frame decode = %+v, want %+v", got, h)
	}

	// Forward: a tenant-stamped frame differs from the old encoding only
	// at bytes 36 and 37, which an old decoder never reads.
	stamped := h
	stamped.Tenant = 3
	stamped.Priority = 1
	neu := make([]byte, HeaderSize)
	if err := EncodeHeader(neu, stamped); err != nil {
		t.Fatal(err)
	}
	for i := range neu {
		if i == 36 || i == 37 {
			continue
		}
		if neu[i] != old[i] {
			t.Fatalf("stamped frame differs from old frame at byte %d (%#x vs %#x)",
				i, neu[i], old[i])
		}
	}
	got, err = DecodeHeader(neu)
	if err != nil {
		t.Fatal(err)
	}
	if got != stamped {
		t.Fatalf("stamped decode = %+v, want %+v", got, stamped)
	}
}
