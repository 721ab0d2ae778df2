package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"tebis/internal/kv"
)

// FuzzDecodeMessage: the spinning thread, the client and the backups
// decode registered memory a peer wrote, in place — the payload slices
// they get back point into that memory and live as long as the request.
// So on arbitrary bytes no decoder of either form may panic, and none may
// return a slice that runs past the end of its input (a length it
// trusted). Every input is decoded as a request and as a reply.
//
// The corpus starts from the golden and compat fixtures: headers with
// their request fields left zero and one with bytes behind its fields not
// zero, the reserved opcodes 21, 22 and 25 to 30, and the payloads whose
// ship-codec fields ride at the end (with and without them) — and the
// inline shape of a request at its edges: one payload byte, exactly
// InlineMax, a header flagged inline that claims a byte more, and an
// inline message with a longer one's stale trailer behind it — the
// resync's sync-tail message, and a move's CompactionDone, its flag in the
// level byte. Replies and acks are in the reply form, at its edges too: no
// payload, one byte, exactly ReplyInlineMax and a byte more, a line
// flagged inline that claims ReplyInlineMax+1, and an inline reply over a
// longer one's stale trailer. Then the 64-byte request line's own edges:
// a get of a 24-byte key and of a 25-byte one, traced requests of both
// shapes with their trace prefix, a traced inline line that claims a byte
// more than its prefix leaves, the benchmark's S put at exactly InlineMax
// (34 bytes, inline) and a byte more (35, out of line), a traced S put,
// an inline line that claims 35 bytes, and requests in the formats that
// came before the line with 26 field bytes: the 128-byte header ("TEBI")
// and the line with 32 field bytes ("TEBQ").
func FuzzDecodeMessage(f *testing.F) {
	msg := func(h Header, payload []byte) []byte {
		buf := make([]byte, MessageSize(len(payload)))
		if _, err := EncodeMessage(buf, h, payload); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	reply := func(h Header, payload []byte) []byte {
		var rb ReplyBuf
		return append([]byte(nil), rb.Finish(h, payload)...)
	}
	full := Header{Opcode: OpPut, Flags: FlagPartial, RegionID: 11, RequestID: 0xfeedface,
		ReplyOffset: 2048, ReplySize: 1024, TraceID: 0xabcdef, Tenant: 3, Priority: 1, SentAt: 1<<40 | 777}
	put := PutReq{Key: []byte("user000042"), Value: []byte("value-bytes")}.Encode(nil)
	f.Add(msg(full, put))
	// Request fields left zero: SentAt, tenant and priority, and all of
	// them from the reply offset on.
	for _, zero := range [][2]int{{22, 26}, {20, 22}, {16, 26}} {
		old := msg(full, put)
		clear(old[zero[0]:zero[1]])
		f.Add(old)
	}
	reserved := msg(full, put)
	copy(reserved[26:30], "\xa1\xb2\xc3\xd4") // behind the fields of an out-of-line header
	f.Add(reserved)
	f.Add(msg(Header{Opcode: OpNoop, RequestID: 1}, nil)) // header-only
	for op := Op(21); op <= 30; op++ {
		if op != OpSyncTail && op != OpSyncTailAck {
			f.Add(msg(Header{Opcode: op, RequestID: uint64(op)}, []byte{0}))
		}
	}
	f.Add(msg(Header{Opcode: OpGet}, GetReq{Key: []byte("k")}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpGetRest}, GetRestReq{Key: []byte("k"), Offset: 900}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpScan}, ScanReq{Start: []byte("k"), Count: 16}.Encode(nil)))
	f.Add(reply(Header{Opcode: OpGetReply, Flags: FlagPartial}, GetReply{Found: true, TotalSize: 4096, Value: []byte("chunk")}.Encode(nil)))
	f.Add(reply(Header{Opcode: OpScanReply}, ScanReply{Pairs: []kv.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}}}.Encode(nil)))
	gets, scans := replyCases() // every shape a worker builds in place
	for _, r := range gets {
		f.Add(reply(Header{Opcode: OpGetReply}, r.Encode(nil)))
	}
	for _, r := range scans {
		f.Add(reply(Header{Opcode: OpScanReply}, r.Encode(nil)))
	}
	f.Add(reply(Header{Opcode: OpPutReply, Flags: FlagError | FlagWrongRegion}, []byte("server: region not hosted here")))
	f.Add(msg(Header{Opcode: OpFlushTail}, FlushTail{RegionID: 3, PrimarySeg: 12}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpCompactionStart}, CompactionStart{RegionID: 3, JobID: 77, SrcLevel: 1, DstLevel: 2}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpCompactionDone}, CompactionDone{RegionID: 3, JobID: 77, SrcLevel: 1, DstLevel: 2, Root: 1 << 33, NumKeys: 5, Watermark: 99}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpCompactionDone}, CompactionDone{RegionID: 3, JobID: 78, SrcLevel: 2, DstLevel: 3, Root: 1 << 33, NumKeys: 5, Watermark: 99, Moved: true}.Encode(nil)))
	f.Add(msg(Header{Opcode: OpGCRelease}, GCRelease{RegionID: 7, Segs: []uint32{3, 1 << 20, 9}}.Encode(nil)))
	// Append-at-payload-end fields, present and — as older peers wrote
	// them — absent.
	seg := IndexSegment{RegionID: 3, JobID: 77, DstLevel: 2, PrimarySeg: 12, DataLen: 65536, Codec: 1}
	f.Add(msg(Header{Opcode: OpIndexSegment}, seg.Encode(nil)))
	f.Add(msg(Header{Opcode: OpIndexSegment}, seg.Encode(nil)[:seg.Size()-1]))
	f.Add(msg(Header{Opcode: OpIndexSegment}, append(seg.Encode(nil), 9, 0, 0, 0))) // an older primary's delta base behind the codec byte
	// A header that promises more payload than follows it.
	short := msg(full, put)
	binary.LittleEndian.PutUint32(short[0:4], 1<<31)
	f.Add(short)
	// The inline shape, as MsgBuf.Finish sends small payloads.
	inline := func(h Header, payload []byte) []byte {
		var mb MsgBuf
		return mb.Finish(h, payload)
	}
	f.Add(inline(full, put))
	f.Add(reply(Header{Opcode: OpPutReply, RequestID: 4}, StatusReply{}.Encode(nil))) // one byte
	f.Add(inline(Header{Opcode: OpPut}, make([]byte, InlineMax)))
	over := inline(Header{Opcode: OpPut}, make([]byte, InlineMax))
	over[0]++ // flagged inline, claims InlineMax+1
	f.Add(over)
	f.Add(append(inline(full, put), msg(full, make([]byte, 200))[HeaderSize:]...)) // a stale trailer behind it
	// The resync's tail message and a backup's inline error ack to it.
	f.Add(msg(Header{Opcode: OpSyncTail, RegionID: 3}, FlushTail{RegionID: 3, PrimarySeg: 12}.Encode(nil)))
	f.Add(reply(Header{Opcode: OpSyncTailAck, Flags: FlagError, RegionID: 3}, []byte("tail segment 12 is not mapped")))
	// The reply form's edges.
	f.Add(reply(Header{Opcode: OpNoopReply, RequestID: 5}, nil))
	f.Add(reply(Header{Opcode: OpGetReply}, make([]byte, ReplyInlineMax)))
	f.Add(reply(Header{Opcode: OpGetReply}, make([]byte, ReplyInlineMax+1)))
	overLine := reply(Header{Opcode: OpGetReply}, make([]byte, ReplyInlineMax))
	overLine[0]++ // flagged inline, claims ReplyInlineMax+1
	f.Add(overLine)
	f.Add(append(reply(Header{Opcode: OpFlushTailAck, RequestID: 6}, StatusReply{}.Encode(nil)),
		reply(Header{Opcode: OpGetReply}, make([]byte, 200))[ReplyLine:]...)) // a stale trailer behind it
	// The request line's edges.
	key24 := []byte("user6284781860667377211x")
	f.Add(inline(Header{Opcode: OpGet, RequestID: 8, ReplySize: 1024}, GetReq{Key: key24}.Encode(nil)))              // 25 bytes, inline
	f.Add(inline(Header{Opcode: OpGet, RequestID: 9, ReplySize: 1024}, GetReq{Key: append(key24, 'y')}.Encode(nil))) // 26, inline
	f.Add(inline(full, GetReq{Key: []byte("user000042")}.Encode(nil)))                                               // traced, inline
	f.Add(inline(full, put))                                                                                         // traced, out of line
	overTraced := inline(full, make([]byte, InlineMax-TracePrefix))
	overTraced[0]++ // flagged inline and traced, claims a byte more than the prefix leaves
	f.Add(overTraced)
	f.Add(oldRequestFrame(full, GetReq{Key: key24}.Encode(nil), true)) // the 128-byte format
	f.Add(oldRequestFrame(full, PutReq{Key: []byte("user000064"), Value: bytes.Repeat([]byte("m"), 113)}.Encode(nil), false))
	sPut := PutReq{Key: key24, Value: []byte("012345678")}.Encode(nil)
	f.Add(inline(Header{Opcode: OpPut, RequestID: 10, ReplySize: 64}, sPut))                                    // 34 bytes, inline
	f.Add(inline(Header{Opcode: OpPut, RequestID: 11, ReplySize: 64}, append(sPut[:len(sPut):len(sPut)], 'z'))) // 35, out of line
	f.Add(inline(full, sPut))                                                                                   // traced: 42 bytes, out of line
	over35 := inline(Header{Opcode: OpPut}, sPut)
	over35[0]++ // flagged inline, claims 35 bytes
	f.Add(over35)
	f.Add(oldLineFrame(full, oldKeyed(key24)))                      // the line with 32 field bytes, inline
	f.Add(oldLineFrame(full, oldKeyed(key24, []byte("012345678")))) // its S put, out of line

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input sits in front of spare capacity, as a message sits in
		// a larger registered buffer: a decoder that trusts a length can
		// reach past len(in) without faulting, and inside catches it.
		buf := make([]byte, len(data)+256)
		in := buf[:copy(buf, data)]
		inside := func(what string, sub []byte) {
			t.Helper()
			if len(sub) == 0 {
				return
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
			if p >= lo && p < lo+uintptr(len(buf)) && p+uintptr(len(sub)) > lo+uintptr(len(in)) {
				t.Fatalf("%s: a %d-byte slice at input offset %d runs past the %d-byte input", what, len(sub), p-lo, len(in))
			}
		}
		payloads := func(p []byte) {
			if r, err := DecodePutReq(p); err == nil {
				inside("PutReq.Key", r.Key)
				inside("PutReq.Value", r.Value)
			}
			if r, err := DecodeGetReq(p); err == nil {
				inside("GetReq.Key", r.Key)
			}
			if r, err := DecodeGetRestReq(p); err == nil {
				inside("GetRestReq.Key", r.Key)
			}
			if r, err := DecodeScanReq(p); err == nil {
				inside("ScanReq.Start", r.Start)
			}
			if r, err := DecodeGetReply(p); err == nil {
				inside("GetReply.Value", r.Value)
			}
			if r, err := DecodeScanReply(p); err == nil {
				for _, pair := range r.Pairs {
					inside("ScanReply key", pair.Key)
					inside("ScanReply value", pair.Value)
				}
			}
			if r, err := DecodeGCRelease(p); err == nil && len(r.Segs) > len(p)/4 {
				t.Fatalf("GCRelease: %d segments out of %d bytes", len(r.Segs), len(p))
			}
			_, _ = DecodeStatusReply(p)
			_, _ = DecodeFlushTail(p)
			// The compaction messages' flags ride in a level byte: past
			// the region ID (a u32 on the wire, 16 bits in the struct)
			// one that decodes re-encodes to the bytes it was read from.
			if r, err := DecodeCompactionStart(p); err == nil && !bytes.Equal(r.Encode(nil)[4:], p[4:r.Size()]) {
				t.Fatalf("CompactionStart %+v re-encodes to %x, read from %x", r, r.Encode(nil), p[:r.Size()])
			}
			_, _ = DecodeIndexSegment(p)
			if r, err := DecodeCompactionDone(p); err == nil && !bytes.Equal(r.Encode(nil)[4:], p[4:r.Size()]) {
				t.Fatalf("CompactionDone %+v re-encodes to %x, read from %x", r, r.Encode(nil), p[:r.Size()])
			}
		}

		// Each form's header is there once its rendezvous word is, and
		// decodes unless it names no opcode or, flagged inline, claims
		// more payload than its header holds.
		check := func(fm shape, h Header, herr error, mh Header, payload []byte, merr error) {
			t.Helper()
			headerArrived := len(in) >= fm.unit && binary.LittleEndian.Uint32(in[fm.unit-4:]) == fm.magic
			pre := 0
			if fm.traces && len(in) > 5 && in[5]&FlagTraced != 0 {
				pre = TracePrefix
			}
			wellFormed := headerArrived && Op(in[4]) != OpInvalid &&
				(in[5]&FlagInline == 0 || uint64(binary.LittleEndian.Uint32(in[0:4]))+uint64(pre) <= uint64(fm.unit-4-fm.fields))
			if (herr == nil) != wellFormed {
				t.Fatalf("%s: header err %v, header arrived %v and well-formed %v", fm.name, herr, headerArrived, wellFormed)
			}
			switch {
			case herr != nil:
				if merr == nil {
					t.Fatalf("%s: decoded a message whose header is %v", fm.name, herr)
				}
			case h.Inline():
				// The header's word is the whole arrival test: the message
				// decodes whatever follows, out of the header alone.
				if merr != nil || fm.wireSize(h) != fm.unit {
					t.Fatalf("%s: inline message: decode %v, wire size %d", fm.name, merr, fm.wireSize(h))
				}
				if len(payload) > 0 && &payload[0] != &in[fm.fields+pre] {
					t.Fatalf("%s: inline message: %d payload bytes, not in the header's reserved bytes behind its prefix", fm.name, len(payload))
				}
				if pre > 0 && h.TraceID != binary.LittleEndian.Uint64(in[fm.fields:]) {
					t.Fatalf("%s: inline message: trace ID %#x, not its prefix's", fm.name, h.TraceID)
				}
			default:
				// Out of line, the second rendezvous at the size the
				// header claims decides.
				end := fm.wireSize(h)
				arrived := end == fm.unit || len(in) >= end && binary.LittleEndian.Uint32(in[end-4:]) == fm.magic
				if (merr == nil) != arrived {
					t.Fatalf("%s: decode err %v, trailer arrived %v", fm.name, merr, arrived)
				}
				if merr == nil && pre > 0 {
					// The trace ID is the payload's prefix, behind the header,
					// where the header alone does not reach.
					if h.TraceID != 0 || mh.TraceID != binary.LittleEndian.Uint64(in[fm.unit:]) {
						t.Fatalf("%s: trace ID %#x, header alone %#x, prefix %x", fm.name, mh.TraceID, h.TraceID, in[fm.unit:fm.unit+pre])
					}
					mh.TraceID = 0
				}
			}
			if merr == nil {
				if mh != h || len(payload) != int(h.PayloadSize) {
					t.Fatalf("%s: decoded header %+v / %d payload bytes, header alone %+v", fm.name, mh, len(payload), h)
				}
				inside(fm.name+" payload", payload)
				payloads(payload)
			}
		}
		h, herr := DecodeHeader(in)
		mh, payload, merr := DecodeMessage(in)
		check(shape{"request", HeaderSize, headerFields, Magic, true, Header.WireSize}, h, herr, mh, payload, merr)
		if herr == nil && !h.Inline() && PayloadArrived(in, h.PayloadOffset()-HeaderSize+int(h.PayloadSize)) != (merr == nil) {
			t.Fatalf("PayloadArrived for %d payload bytes in a %d-byte input, DecodeMessage %v", h.PayloadSize, len(in), merr)
		}
		h, herr = DecodeReplyHeader(in)
		mh, payload, merr = DecodeReply(in)
		check(shape{"reply", ReplyLine, replyFields, ReplyMagic, false, Header.ReplyWireSize}, h, herr, mh, payload, merr)
		payloads(in)
	})
}

// shape is what FuzzDecodeMessage knows of a form from the format: its
// header size, field bytes and word, whether its messages carry a trace
// prefix, and the size a header says its message is.
type shape struct {
	name         string
	unit, fields int
	magic        uint32
	traces       bool
	wireSize     func(Header) int
}
