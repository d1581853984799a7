// Delta log: the hybridlsh-delta/v1 wire format.
//
// A delta log is the replication side-channel between snapshots: the
// primary journals every mutation (append, delete, compact) as one
// CRC32-framed record, and replicas tail the stream to converge on a
// state that answers id-for-id identically to the writer — the same
// guarantee the snapshot format gives at rest, extended to the wire.
//
// # Layout
//
// A delta stream is a fixed header followed by frames:
//
//	header := magic[14] ("hybridlsh-delt") | version u32 (1) |
//	          epoch u64 | metric str (u16 len + bytes) | dim u32
//	frame  := tag[4] | seq u64 | length u64 | payload[length] | crc32 u32
//
// All integers are little-endian, mirroring the snapshot format. One
// deliberate deviation: the frame CRC is IEEE CRC-32 over the tag, seq
// and length fields *and* the payload (a snapshot section checksums the
// payload only). A delta frame's header carries replication state — a
// bit flip in seq would silently skew the replica's cursor — so the
// checksum covers it.
//
// The epoch identifies the writer incarnation whose id space the frames
// extend; frames from one epoch must never be applied on top of a
// snapshot from another. Sequence numbers start at 1 and increase by
// exactly 1 per frame; a gap in a stream is corruption.
//
// Frame kinds:
//
//	"appd"  an append: target shard u32 | base global id i32 |
//	        point count u64 | the points (the snapshot point encoding
//	        for the stream's metric). The target shard is explicit
//	        because the writer's smallest-shard routing depends on
//	        compaction timing; replicas must not re-derive it.
//	"dele"  a delete: id count u64 | strictly increasing global ids.
//	"cmpt"  a compaction: shard u32 | removed id count u64 | strictly
//	        increasing global ids physically removed from that shard.
//	        The id list is explicit because which tombstones a
//	        compaction sweeps depends on when it ran on the writer.
//
// docs/REPLICATION.md is the normative byte-level specification.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// DeltaFormatName identifies the delta-log format, magic and version
// together.
const DeltaFormatName = "hybridlsh-delta/v1"

// DeltaVersion is the delta format version this package reads and
// writes. Bump it on any incompatible layout change.
const DeltaVersion = 1

// deltaMagic opens every delta stream. Same length as the snapshot
// magic so both headers are distinguishable from their first 14 bytes.
const deltaMagic = "hybridlsh-delt"

// DeltaKind identifies a delta frame's mutation type.
type DeltaKind uint8

// Delta frame kinds, in their wire-tag order.
const (
	DeltaAppend  DeltaKind = 1 // "appd"
	DeltaDelete  DeltaKind = 2 // "dele"
	DeltaCompact DeltaKind = 3 // "cmpt"
)

// deltaTags maps a kind to its 4-byte wire tag ("" for no kind).
var deltaTags = [...]string{DeltaAppend: "appd", DeltaDelete: "dele", DeltaCompact: "cmpt"}

// deltaKindOf maps a wire tag back to its kind (0 for unknown tags).
func deltaKindOf(tag string) DeltaKind {
	for k, t := range deltaTags {
		if k > 0 && t == tag {
			return DeltaKind(k)
		}
	}
	return 0
}

// DeltaHeader is the decoded (or to-be-encoded) header of a delta
// stream: which writer incarnation the frames belong to and how to
// decode its points.
type DeltaHeader struct {
	// Epoch identifies the writer incarnation (in practice its boot
	// time). Frames are only applicable on top of a snapshot taken in
	// the same epoch.
	Epoch uint64
	// Metric is one of the Metric* identifiers.
	Metric string
	// Dim is the ambient point dimension (bits for binary points).
	Dim int
}

// DeltaFrame is one decoded mutation record.
type DeltaFrame[P any] struct {
	// Seq is the frame's position in the epoch's mutation order,
	// starting at 1.
	Seq uint64
	// Kind says which of the remaining fields are meaningful.
	Kind DeltaKind
	// Shard is the explicit target shard of an append or compaction.
	Shard int
	// Base is an append's first global id; the batch occupies
	// [Base, Base+len(Points)).
	Base int32
	// Points is an append's point batch.
	Points []P
	// IDs is a delete's tombstoned ids, or a compaction's physically
	// removed ids; strictly increasing in both cases.
	IDs []int32
}

// WriteDeltaHeader writes the delta stream header.
func WriteDeltaHeader(w io.Writer, h DeltaHeader) error {
	return deltaStream.write(w, h, 0)
}

// ReadDeltaHeader reads and validates a delta stream header, returning
// it and how many bytes it occupied (the offset of the first frame).
func ReadDeltaHeader(r io.Reader) (DeltaHeader, int, error) {
	h, _, n, err := deltaStream.read(r)
	return h, n, err
}

// streamHeader is the header codec the delta stream and the WAL
// segment share:
//
//	magic[14] | version u32 | epoch u64 | [first-seq u64] |
//	metric str (u16 len + bytes) | dim u32
//
// Each format keeps its own magic and version; only the WAL segment
// carries first-seq.
type streamHeader struct {
	magic    string
	version  uint32
	name     string // the format as error messages name it
	firstSeq bool
}

var (
	deltaStream = streamHeader{magic: deltaMagic, version: DeltaVersion, name: "delta log"}
	walSegment  = streamHeader{magic: walSegMagic, version: WALSegVersion, name: "wal segment", firstSeq: true}
)

func (s streamHeader) write(w io.Writer, h DeltaHeader, firstSeq uint64) error {
	if h.Dim < 1 || h.Dim > maxDim {
		return fmt.Errorf("persist: %s header dim %d outside [1,%d]", s.name, h.Dim, maxDim)
	}
	if s.firstSeq && firstSeq == 0 {
		return fmt.Errorf("persist: %s first-seq 0 (sequences start at 1)", s.name)
	}
	var e enc
	e.b = append(e.b, s.magic...)
	e.u32(s.version)
	e.u64(h.Epoch)
	if s.firstSeq {
		e.u64(firstSeq)
	}
	e.str(h.Metric)
	e.u32(uint32(h.Dim))
	_, err := w.Write(e.b)
	return err
}

// read reads and validates a header, returning it, its first-seq (0
// for a delta stream) and its length in bytes. A header cut inside its
// magic and version is ErrBadMagic, one cut later ErrCorrupt.
func (s streamHeader) read(r io.Reader) (h DeltaHeader, firstSeq uint64, n int, err error) {
	var fixed [len(deltaMagic) + 4]byte // both magics are 14 bytes
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, 0, 0, fmt.Errorf("%w: truncated %s header (%v)", ErrBadMagic, s.name, err)
	}
	if string(fixed[:len(s.magic)]) != s.magic {
		return h, 0, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(fixed[len(s.magic):]); v != s.version {
		return h, 0, 0, fmt.Errorf("%w: %s has version %d, this reader handles %d", ErrVersion, s.name, v, s.version)
	}
	restLen := 8 + 2 // epoch + metric length
	if s.firstSeq {
		restLen += 8
	}
	rest := make([]byte, restLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return h, 0, 0, corrupt("truncated %s header (%v)", s.name, err)
	}
	h.Epoch = binary.LittleEndian.Uint64(rest)
	if s.firstSeq {
		if firstSeq = binary.LittleEndian.Uint64(rest[8:]); firstSeq == 0 {
			return h, 0, 0, corrupt("%s first-seq 0 (sequences start at 1)", s.name)
		}
	}
	mlen := int(binary.LittleEndian.Uint16(rest[len(rest)-2:]))
	if mlen > 64 {
		return h, 0, 0, corrupt("%s metric name claims %d bytes", s.name, mlen)
	}
	buf := make([]byte, mlen+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, 0, 0, corrupt("truncated %s header (%v)", s.name, err)
	}
	h.Metric = string(buf[:mlen])
	h.Dim = int(binary.LittleEndian.Uint32(buf[mlen:]))
	if h.Dim < 1 || h.Dim > maxDim {
		return h, 0, 0, corrupt("%s header dim %d outside [1,%d]", s.name, h.Dim, maxDim)
	}
	return h, firstSeq, len(fixed) + len(rest) + len(buf), nil
}

// EncodeDeltaFrame encodes one frame for the header's metric and
// dimension, returning the complete wire bytes (tag through CRC).
func EncodeDeltaFrame[P any](h DeltaHeader, f DeltaFrame[P]) ([]byte, error) {
	c, err := codecFor[P](h.Metric)
	if err != nil {
		return nil, err
	}
	if int(f.Kind) >= len(deltaTags) || deltaTags[f.Kind] == "" {
		return nil, fmt.Errorf("persist: unknown delta kind %d", f.Kind)
	}
	if f.Seq == 0 {
		return nil, fmt.Errorf("persist: delta frame sequence numbers start at 1")
	}
	var p enc
	switch f.Kind {
	case DeltaAppend:
		if len(f.Points) == 0 {
			return nil, fmt.Errorf("persist: empty append frame")
		}
		if f.Shard < 0 || f.Shard >= maxShards {
			return nil, fmt.Errorf("persist: append frame shard %d outside [0,%d)", f.Shard, maxShards)
		}
		if f.Base < 0 {
			return nil, fmt.Errorf("persist: append frame base id %d is negative", f.Base)
		}
		p.u32(uint32(f.Shard))
		p.i32(f.Base)
		p.u64(uint64(len(f.Points)))
		m := &indexMeta{metric: h.Metric, dim: h.Dim, n: len(f.Points)}
		if err := c.writePoints(&p, m, func(i int) P { return f.Points[i] }); err != nil {
			return nil, err
		}
	case DeltaDelete:
		if err := encodeDeltaIDs(&p, f.IDs); err != nil {
			return nil, err
		}
	case DeltaCompact:
		if f.Shard < 0 || f.Shard >= maxShards {
			return nil, fmt.Errorf("persist: compact frame shard %d outside [0,%d)", f.Shard, maxShards)
		}
		p.u32(uint32(f.Shard))
		if err := encodeDeltaIDs(&p, f.IDs); err != nil {
			return nil, err
		}
	}
	var e enc
	e.b = append(e.b, deltaTags[f.Kind]...)
	e.u64(f.Seq)
	e.u64(uint64(len(p.b)))
	e.b = append(e.b, p.b...)
	e.u32(crc32.ChecksumIEEE(e.b)) // covers tag+seq+len+payload
	return e.b, nil
}

// encodeDeltaIDs writes a count-prefixed, strictly increasing id list
// (the canonical encoding both delete and compact frames share).
func encodeDeltaIDs(e *enc, ids []int32) error {
	if len(ids) == 0 {
		return fmt.Errorf("persist: empty delta id list")
	}
	e.u64(uint64(len(ids)))
	prev := int32(-1)
	for _, id := range ids {
		if id <= prev {
			return fmt.Errorf("persist: delta id list not strictly increasing at id %d", id)
		}
		prev = id
		e.i32(id)
	}
	return nil
}

// deltaFrameHdr is a frame's tag[4] + seq u64 + length u64.
const deltaFrameHdr = 20

// ScanDeltaFrame validates the delta frame at the start of b at the raw
// level — known tag, sane length, the expected sequence number, and the
// CRC over tag+seq+len+payload — without decoding the payload (which
// would need the point type). It returns the frame's total length in
// bytes. wantSeq 0 accepts any sequence number. Every failure mode,
// including a buffer too short to hold the frame, surfaces as an error
// wrapping ErrCorrupt: to WAL recovery a torn tail and a bad frame call
// for the same truncation. It is the only place a frame's framing is
// checked; DeltaDecoder runs it before decoding a payload.
func ScanDeltaFrame(b []byte, wantSeq uint64) (int, error) {
	if len(b) < deltaFrameHdr {
		return 0, corrupt("truncated delta frame header (%d bytes)", len(b))
	}
	tag := string(b[:4])
	if deltaKindOf(tag) == 0 {
		return 0, corrupt("unknown delta frame tag %q", tag)
	}
	seq := binary.LittleEndian.Uint64(b[4:])
	if seq == 0 {
		return 0, corrupt("delta frame sequence 0 (sequences start at 1)")
	}
	if wantSeq != 0 && seq != wantSeq {
		return 0, corrupt("delta frame sequence %d, want %d", seq, wantSeq)
	}
	n := binary.LittleEndian.Uint64(b[12:])
	if n > maxSectionLen {
		return 0, corrupt("delta frame %q claims %d bytes, cap is %d", tag, n, int64(maxSectionLen))
	}
	total := deltaFrameHdr + int(n) + 4
	if int64(len(b)) < int64(deltaFrameHdr)+int64(n)+4 {
		return 0, corrupt("truncated delta frame %q (%d of %d bytes)", tag, len(b), total)
	}
	sum := crc32.ChecksumIEEE(b[:deltaFrameHdr+int(n)])
	if want := binary.LittleEndian.Uint32(b[deltaFrameHdr+int(n):]); sum != want {
		return 0, corrupt("delta frame %q checksum mismatch (got %08x, want %08x)", tag, sum, want)
	}
	return total, nil
}

// DeltaDecoder decodes the frames of one delta stream held in memory.
// Any damage — truncation, a CRC mismatch, an unexpected sequence
// number, an impossible count — surfaces as an error wrapping
// ErrCorrupt; a decoder never panics and never allocates more than the
// input can justify.
type DeltaDecoder[P any] struct {
	h DeltaHeader
	c *codec[P]
}

// NewDeltaDecoder returns a decoder for frames written under h.
// wantMetric, when non-empty, must match the header's metric
// (ErrMetric otherwise); pass "" to accept whatever the header
// declares, subject to the point type P matching.
func NewDeltaDecoder[P any](h DeltaHeader, wantMetric string) (*DeltaDecoder[P], error) {
	if wantMetric != "" && h.Metric != wantMetric {
		return nil, fmt.Errorf("%w: delta log is %q, want %q", ErrMetric, h.Metric, wantMetric)
	}
	if h.Dim < 1 || h.Dim > maxDim {
		return nil, fmt.Errorf("persist: delta header dim %d outside [1,%d]", h.Dim, maxDim)
	}
	c, err := codecFor[P](h.Metric)
	if err != nil {
		return nil, err
	}
	return &DeltaDecoder[P]{h: h, c: c}, nil
}

// Decode validates the frame at the start of b through ScanDeltaFrame
// (wantSeq 0 accepts any sequence number) and decodes its payload where
// it lies. It returns the frame and its length in bytes.
func (dd *DeltaDecoder[P]) Decode(b []byte, wantSeq uint64) (DeltaFrame[P], int, error) {
	var f DeltaFrame[P]
	n, err := ScanDeltaFrame(b, wantSeq)
	if err != nil {
		return f, 0, err
	}
	tag := string(b[:4])
	f.Kind = deltaKindOf(tag)
	f.Seq = binary.LittleEndian.Uint64(b[4:])
	d := &dec{b: b[deltaFrameHdr : n-4]}
	switch f.Kind {
	case DeltaAppend:
		shard := d.u32()
		f.Base = d.i32()
		if d.err == nil && shard >= maxShards {
			return f, 0, corrupt("append frame shard %d outside [0,%d)", shard, maxShards)
		}
		if d.err == nil && f.Base < 0 {
			return f, 0, corrupt("append frame base id %d is negative", f.Base)
		}
		f.Shard = int(shard)
		m := &indexMeta{metric: dd.h.Metric, dim: dd.h.Dim}
		m.n = d.count(pointFloor(dd.h.Metric, dd.h.Dim), "append point")
		if d.err != nil {
			return f, 0, d.err
		}
		if m.n == 0 {
			return f, 0, corrupt("empty append frame")
		}
		if f.Points, err = dd.c.readPoints(d, m); err != nil {
			return f, 0, err
		}
	case DeltaDelete:
		if f.IDs, err = decodeDeltaIDs(d); err != nil {
			return f, 0, err
		}
	case DeltaCompact:
		shard := d.u32()
		if d.err == nil && shard >= maxShards {
			return f, 0, corrupt("compact frame shard %d outside [0,%d)", shard, maxShards)
		}
		f.Shard = int(shard)
		if f.IDs, err = decodeDeltaIDs(d); err != nil {
			return f, 0, err
		}
	}
	if err := d.done(tag); err != nil {
		return f, 0, err
	}
	return f, n, nil
}

// pointFloor returns the minimum wire size of one point for a metric,
// used to bound an append frame's claimed count before allocation.
func pointFloor(metric string, dim int) int {
	switch metric {
	case MetricCosine:
		return 4 // a sparse point is at least its nnz field
	case MetricHamming, MetricJaccard:
		return ((dim + 63) / 64) * 8
	default:
		return dim * 4
	}
}

// decodeDeltaIDs reads a count-prefixed, strictly increasing id list.
func decodeDeltaIDs(d *dec) ([]int32, error) {
	n := d.count(4, "delta id")
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, corrupt("empty delta id list")
	}
	ids := make([]int32, n)
	prev := int32(-1)
	for i := range ids {
		ids[i] = d.i32()
		if d.err != nil {
			return nil, d.err
		}
		if ids[i] <= prev {
			return nil, corrupt("delta id list not strictly increasing at id %d", ids[i])
		}
		prev = ids[i]
	}
	return ids, nil
}
