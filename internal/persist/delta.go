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

// deltaTag maps a kind to its 4-byte wire tag.
func deltaTag(k DeltaKind) (string, error) {
	switch k {
	case DeltaAppend:
		return "appd", nil
	case DeltaDelete:
		return "dele", nil
	case DeltaCompact:
		return "cmpt", nil
	}
	return "", fmt.Errorf("persist: unknown delta kind %d", k)
}

// deltaKindOf maps a wire tag back to its kind (0 for unknown tags).
func deltaKindOf(tag string) DeltaKind {
	switch tag {
	case "appd":
		return DeltaAppend
	case "dele":
		return DeltaDelete
	case "cmpt":
		return DeltaCompact
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
	if h.Dim < 1 || h.Dim > maxDim {
		return fmt.Errorf("persist: delta header dim %d outside [1,%d]", h.Dim, maxDim)
	}
	var e enc
	e.b = append(e.b, deltaMagic...)
	e.u32(DeltaVersion)
	e.u64(h.Epoch)
	e.str(h.Metric)
	e.u32(uint32(h.Dim))
	_, err := w.Write(e.b)
	return err
}

// ReadDeltaHeader reads and validates a delta stream header.
func ReadDeltaHeader(r io.Reader) (DeltaHeader, error) {
	var h DeltaHeader
	var fixed [len(deltaMagic) + 4]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, fmt.Errorf("%w: truncated delta header (%v)", ErrBadMagic, err)
	}
	if string(fixed[:len(deltaMagic)]) != deltaMagic {
		return h, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(fixed[len(deltaMagic):]); v != DeltaVersion {
		return h, fmt.Errorf("%w: delta log has version %d, this reader handles %d", ErrVersion, v, DeltaVersion)
	}
	var rest [8 + 2]byte // epoch + metric length
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return h, corrupt("truncated delta header (%v)", err)
	}
	h.Epoch = binary.LittleEndian.Uint64(rest[:8])
	mlen := int(binary.LittleEndian.Uint16(rest[8:]))
	if mlen > 64 {
		return h, corrupt("delta metric name claims %d bytes", mlen)
	}
	buf := make([]byte, mlen+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, corrupt("truncated delta header (%v)", err)
	}
	h.Metric = string(buf[:mlen])
	h.Dim = int(binary.LittleEndian.Uint32(buf[mlen:]))
	if h.Dim < 1 || h.Dim > maxDim {
		return h, corrupt("delta header dim %d outside [1,%d]", h.Dim, maxDim)
	}
	return h, nil
}

// EncodeDeltaFrame encodes one frame for the header's metric and
// dimension, returning the complete wire bytes (tag through CRC).
func EncodeDeltaFrame[P any](h DeltaHeader, f DeltaFrame[P]) ([]byte, error) {
	c, err := codecFor[P](h.Metric)
	if err != nil {
		return nil, err
	}
	tag, err := deltaTag(f.Kind)
	if err != nil {
		return nil, err
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
	e.b = append(e.b, tag...)
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

// DeltaReader decodes a delta stream: the header once, then one frame
// per Next call until a clean io.EOF at a frame boundary. Any damage —
// truncation mid-frame, a CRC mismatch, a sequence gap, an impossible
// count — surfaces as an error wrapping ErrCorrupt; a reader never
// panics and never allocates more than the input can justify.
type DeltaReader[P any] struct {
	r       io.Reader
	h       DeltaHeader
	c       *codec[P]
	lastSeq uint64
	started bool
}

// NewDeltaReader reads and validates the stream header. wantMetric,
// when non-empty, must match the header's metric (ErrMetric otherwise);
// pass "" to accept whatever the header declares, subject to the point
// type P matching.
func NewDeltaReader[P any](r io.Reader, wantMetric string) (*DeltaReader[P], error) {
	h, err := ReadDeltaHeader(r)
	if err != nil {
		return nil, err
	}
	if wantMetric != "" && h.Metric != wantMetric {
		return nil, fmt.Errorf("%w: delta log is %q, want %q", ErrMetric, h.Metric, wantMetric)
	}
	c, err := codecFor[P](h.Metric)
	if err != nil {
		return nil, err
	}
	return &DeltaReader[P]{r: r, h: h, c: c}, nil
}

// Header returns the decoded stream header.
func (dr *DeltaReader[P]) Header() DeltaHeader { return dr.h }

// Next decodes the next frame. It returns io.EOF — and only io.EOF — at
// a clean end of stream on a frame boundary.
func (dr *DeltaReader[P]) Next() (DeltaFrame[P], error) {
	var f DeltaFrame[P]
	var hdr [20]byte // tag[4] + seq u64 + len u64
	if _, err := io.ReadFull(dr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return f, io.EOF
		}
		return f, corrupt("truncated delta frame header (%v)", err)
	}
	tag := string(hdr[:4])
	f.Kind = deltaKindOf(tag)
	if f.Kind == 0 {
		return f, corrupt("unknown delta frame tag %q", tag)
	}
	f.Seq = binary.LittleEndian.Uint64(hdr[4:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxSectionLen {
		return f, corrupt("delta frame %q claims %d bytes, cap is %d", tag, n, int64(maxSectionLen))
	}
	if f.Seq == 0 {
		return f, corrupt("delta frame sequence 0 (sequences start at 1)")
	}
	if dr.started && f.Seq != dr.lastSeq+1 {
		return f, corrupt("delta sequence gap: frame %d follows %d", f.Seq, dr.lastSeq)
	}
	payload, err := readN(dr.r, int64(n), tag)
	if err != nil {
		return f, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(dr.r, crc[:]); err != nil {
		return f, corrupt("truncated delta frame %q checksum (%v)", tag, err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if want := binary.LittleEndian.Uint32(crc[:]); sum != want {
		return f, corrupt("delta frame %q checksum mismatch (got %08x, want %08x)", tag, sum, want)
	}
	d := &dec{b: payload}
	switch f.Kind {
	case DeltaAppend:
		shard := d.u32()
		f.Base = d.i32()
		if d.err == nil && shard >= maxShards {
			return f, corrupt("append frame shard %d outside [0,%d)", shard, maxShards)
		}
		if d.err == nil && f.Base < 0 {
			return f, corrupt("append frame base id %d is negative", f.Base)
		}
		f.Shard = int(shard)
		m := &indexMeta{metric: dr.h.Metric, dim: dr.h.Dim}
		m.n = d.count(pointFloor(dr.h.Metric, dr.h.Dim), "append point")
		if d.err != nil {
			return f, d.err
		}
		if m.n == 0 {
			return f, corrupt("empty append frame")
		}
		if f.Points, err = dr.c.readPoints(d, m); err != nil {
			return f, err
		}
	case DeltaDelete:
		if f.IDs, err = decodeDeltaIDs(d); err != nil {
			return f, err
		}
	case DeltaCompact:
		shard := d.u32()
		if d.err == nil && shard >= maxShards {
			return f, corrupt("compact frame shard %d outside [0,%d)", shard, maxShards)
		}
		f.Shard = int(shard)
		if f.IDs, err = decodeDeltaIDs(d); err != nil {
			return f, err
		}
	}
	if err := d.done(tag); err != nil {
		return f, err
	}
	dr.started = true
	dr.lastSeq = f.Seq
	return f, nil
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

// readN reads exactly n bytes incrementally (so a truncated stream that
// claims a huge length never causes a huge allocation).
func readN(r io.Reader, n int64, tag string) ([]byte, error) {
	var buf deltaBuf
	if _, err := io.CopyN(&buf, r, n); err != nil {
		return nil, corrupt("truncated delta frame %q (%v)", tag, err)
	}
	return buf.b, nil
}

// deltaBuf is a minimal growable sink for readN.
type deltaBuf struct{ b []byte }

func (d *deltaBuf) Write(p []byte) (int, error) {
	d.b = append(d.b, p...)
	return len(p), nil
}
