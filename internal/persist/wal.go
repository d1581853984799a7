// WAL segments: the hybridlsh-walseg/v1 on-disk container.
//
// A write-ahead-log segment file is a small header followed by a run of
// hybridlsh-delta/v1 frames (see delta.go) — the frames are bit-for-bit
// the bytes the replication wire carries, so a recovered WAL replays
// through the same DeltaDecoder a follower uses. The header (the
// delta-stream header codec plus first-seq) pins the frames to their
// writer incarnation and position:
//
//	header := magic[14] ("hybridlsh-wseg") | version u32 (1) |
//	          epoch u64 | first-seq u64 | metric str (u16 len + bytes) |
//	          dim u32
//
// first-seq is the sequence number of the segment's first frame; a
// segment directory is valid only when each segment's first-seq equals
// the previous segment's last frame + 1 (internal/replica.OpenWAL
// enforces this and drops everything after the first break).
//
// docs/REPLICATION.md is the normative byte-level specification.
package persist

import "io"

// WALSegFormatName identifies the WAL segment format, magic and version
// together.
const WALSegFormatName = "hybridlsh-walseg/v1"

// WALSegVersion is the segment format version this package reads and
// writes. Bump it on any incompatible layout change.
const WALSegVersion = 1

// walSegMagic opens every WAL segment. Same length as the snapshot and
// delta magics so all three headers are distinguishable from their
// first 14 bytes.
const walSegMagic = "hybridlsh-wseg"

// WALSegmentHeader is the decoded (or to-be-encoded) header of one WAL
// segment file.
type WALSegmentHeader struct {
	// Delta carries the epoch, metric and dimension the segment's
	// frames were encoded under — the same fields a delta stream
	// header declares.
	Delta DeltaHeader
	// FirstSeq is the sequence number of the segment's first frame
	// (the frames run contiguously from there).
	FirstSeq uint64
}

// WALSegmentHeaderSize returns the encoded header size in bytes for a
// metric name, so WAL bookkeeping can compute frame offsets without
// re-reading the file.
func WALSegmentHeaderSize(metric string) int {
	return len(walSegMagic) + 4 + 8 + 8 + 2 + len(metric) + 4
}

// WriteWALSegmentHeader writes a segment header.
func WriteWALSegmentHeader(w io.Writer, h WALSegmentHeader) error {
	return walSegment.write(w, h.Delta, h.FirstSeq)
}

// ReadWALSegmentHeader reads and validates a segment header, returning
// the decoded header and how many bytes it occupied (the offset of the
// segment's first frame).
func ReadWALSegmentHeader(r io.Reader) (WALSegmentHeader, int, error) {
	d, firstSeq, n, err := walSegment.read(r)
	return WALSegmentHeader{Delta: d, FirstSeq: firstSeq}, n, err
}
