package wire

// Payload codecs for the scrub-and-repair plane (DESIGN.md "Storage
// integrity").

// SegRef names one replicated segment in primary space: the segment
// numbering both sides share. Kind is the integrity frame kind
// (integrity.KindLog / KindIndex), Level locates index segments (0 for
// the value log, >= 1 for an LSM level).
type SegRef struct {
	Kind       uint8
	Level      uint8
	PrimarySeg uint32
}

// segRefSize is the encoded size of one SegRef.
const segRefSize = 2 + 4

func appendSegRef(dst []byte, r SegRef) []byte {
	dst = append(dst, r.Kind, r.Level)
	return appendU32(dst, r.PrimarySeg)
}

func readSegRef(src []byte) (SegRef, []byte, error) {
	if len(src) < 2 {
		return SegRef{}, nil, ErrShortBuffer
	}
	r := SegRef{Kind: src[0], Level: src[1]}
	seg, rest, err := readU32(src[2:])
	if err != nil {
		return SegRef{}, nil, err
	}
	r.PrimarySeg = seg
	return r, rest, nil
}

// ScrubReq is the primary → backup command to checksum-verify every
// replicated segment of a region.
type ScrubReq struct {
	RegionID uint16
}

// Size returns the encoded payload length.
func (r ScrubReq) Size() int { return 4 }

// Encode appends the payload to dst.
func (r ScrubReq) Encode(dst []byte) []byte {
	return appendU32(grow(dst, r.Size()), uint32(r.RegionID))
}

// DecodeScrubReq parses a ScrubReq payload.
func DecodeScrubReq(p []byte) (ScrubReq, error) {
	rid, _, err := readU32(p)
	if err != nil {
		return ScrubReq{}, err
	}
	return ScrubReq{RegionID: uint16(rid)}, nil
}

// ScrubReply reports a backup's scrub pass: how many segments it
// verified and which failed, named in primary space so the primary can
// source repairs.
type ScrubReply struct {
	Scanned uint32
	Corrupt []SegRef
}

// Size returns the encoded payload length.
func (r ScrubReply) Size() int { return 4 + 4 + segRefSize*len(r.Corrupt) }

// Encode appends the payload to dst.
func (r ScrubReply) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), r.Scanned)
	dst = appendU32(dst, uint32(len(r.Corrupt)))
	for _, ref := range r.Corrupt {
		dst = appendSegRef(dst, ref)
	}
	return dst
}

// DecodeScrubReply parses a ScrubReply payload.
func DecodeScrubReply(p []byte) (ScrubReply, error) {
	scanned, rest, err := readU32(p)
	if err != nil {
		return ScrubReply{}, err
	}
	n, rest, err := readU32(rest)
	if err != nil {
		return ScrubReply{}, err
	}
	// Reject remote-controlled counts the payload cannot hold before
	// allocating.
	if int(n) > len(rest)/segRefSize+1 {
		return ScrubReply{}, ErrBadHeader
	}
	out := ScrubReply{Scanned: scanned, Corrupt: make([]SegRef, 0, n)}
	for i := uint32(0); i < n; i++ {
		var ref SegRef
		if ref, rest, err = readSegRef(rest); err != nil {
			return ScrubReply{}, err
		}
		out.Corrupt = append(out.Corrupt, ref)
	}
	return out, nil
}

// FetchSegment asks a backup for a clean, primary-space copy of one
// replicated segment. The reply payload carries the bytes (ack-path
// RDMA write), so the requester must post a receive sized for a full
// segment image.
type FetchSegment struct {
	RegionID uint16
	Ref      SegRef
	Codec    uint8 // shipcodec.Codec the requester can decode; 0 = raw
}

// Size returns the encoded payload length.
func (r FetchSegment) Size() int { return 4 + segRefSize + 1 }

// Encode appends the payload to dst.
func (r FetchSegment) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendSegRef(dst, r.Ref)
	return append(dst, r.Codec)
}

// DecodeFetchSegment parses a FetchSegment payload.
func DecodeFetchSegment(p []byte) (FetchSegment, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return FetchSegment{}, err
	}
	ref, rest, err := readSegRef(rest)
	if err != nil {
		return FetchSegment{}, err
	}
	out := FetchSegment{RegionID: uint16(rid), Ref: ref}
	// Optional trailing codec byte: absent on pre-codec requesters.
	if len(rest) >= 1 {
		out.Codec = rest[0]
	}
	return out, nil
}

// FetchSegmentReply carries the requested segment payload (its used
// bytes, already translated to primary space) or Found=false when the
// backup has no clean copy.
type FetchSegmentReply struct {
	Found bool
	Data  []byte
	Codec uint8 // shipcodec.Codec of Data; 0 = raw segment bytes
}

// Size returns the encoded payload length.
func (r FetchSegmentReply) Size() int { return 1 + 4 + len(r.Data) + 1 }

// Encode appends the payload to dst.
func (r FetchSegmentReply) Encode(dst []byte) []byte {
	b := byte(0)
	if r.Found {
		b = 1
	}
	dst = append(grow(dst, r.Size()), b)
	dst = appendBytes(dst, r.Data)
	return append(dst, r.Codec)
}

// DecodeFetchSegmentReply parses a FetchSegmentReply payload.
func DecodeFetchSegmentReply(p []byte) (FetchSegmentReply, error) {
	if len(p) < 1 {
		return FetchSegmentReply{}, ErrShortBuffer
	}
	found := p[0] == 1
	data, rest, err := readBytes(p[1:])
	if err != nil {
		return FetchSegmentReply{}, err
	}
	out := FetchSegmentReply{Found: found, Data: data}
	// Optional trailing codec byte: absent on pre-codec backups.
	if len(rest) >= 1 {
		out.Codec = rest[0]
	}
	return out, nil
}

// RepairSegment pushes a clean segment image to a backup whose copy is
// corrupt. The image travels by one-sided RDMA write into the backup's
// index staging buffer (like OpIndexSegment); this message carries the
// metadata and a CRC-32C over the staged bytes so the backup can check
// the transfer before patching its device.
type RepairSegment struct {
	RegionID uint16
	Ref      SegRef
	DataLen  uint32
	CRC      uint32 // CRC-32C over the staged (possibly framed) bytes
	Codec    uint8  // shipcodec.Codec of the staged bytes; 0 = raw
}

// Size returns the encoded payload length.
func (r RepairSegment) Size() int { return 4 + segRefSize + 4 + 4 + 1 }

// Encode appends the payload to dst.
func (r RepairSegment) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendSegRef(dst, r.Ref)
	dst = appendU32(dst, r.DataLen)
	dst = appendU32(dst, r.CRC)
	return append(dst, r.Codec)
}

// DecodeRepairSegment parses a RepairSegment payload.
func DecodeRepairSegment(p []byte) (RepairSegment, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return RepairSegment{}, err
	}
	ref, rest, err := readSegRef(rest)
	if err != nil {
		return RepairSegment{}, err
	}
	r := RepairSegment{RegionID: uint16(rid), Ref: ref}
	if r.DataLen, rest, err = readU32(rest); err != nil {
		return RepairSegment{}, err
	}
	if r.CRC, rest, err = readU32(rest); err != nil {
		return RepairSegment{}, err
	}
	// Optional trailing codec byte: absent on pre-codec primaries.
	if len(rest) >= 1 {
		r.Codec = rest[0]
	}
	return r, nil
}
