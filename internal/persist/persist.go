// Package persist implements the hybridlsh-snap/v1 snapshot format: a
// versioned, length-prefixed binary encoding of a complete hybrid-LSH
// index — points, configuration, the drawn hash-function parameters of
// every LSH family, all bucket tables, the per-bucket HyperLogLog
// registers and the calibrated cost model — so that a loaded index
// answers queries id-for-id identically to the saved one (same hashes,
// same sketches, same hybrid decisions) without re-hashing a single
// point.
//
// # Layout
//
// A snapshot is a fixed header followed by a stream of CRC-protected
// sections:
//
//	header   := magic[14] ("hybridlsh-snap") | version u32 (1) | kind u8
//	section  := tag[4] | length u64 | payload[length] | crc32 u32
//
// All integers are little-endian; the CRC is IEEE CRC-32 over the
// payload bytes. kind 1 is a plain index, kind 2 a sharded index.
//
// A plain index (kind 1) is the section sequence
//
//	"meta"            metric, dim, n, radius, δ, p₁, cost model, (k, L,
//	                  m, HLL threshold, seed), family extras (p-stable
//	                  slot width; cross-polytope calibrated curve)
//	["prob"]          optional: the multi-probe configuration T (u32 in
//	                  [1, maxProbes]); present iff the snapshot holds a
//	                  multi-probe index
//	["quan"]          optional: the point-store quantization mode (u8;
//	                  1 = SQ8); present iff the index keeps a scalar-
//	                  quantized verification copy. Only the exact points
//	                  are persisted — the quantized copy is refit
//	                  deterministically on load — so the section is one
//	                  byte and exact-only files stay byte-identical to
//	                  the pre-quantization layout.
//	"pnts"            the points (dense: n×dim f32; sparse: per point
//	                  nnz + sorted idx/val pairs; binary: bit-packed
//	                  words)
//	"tabl" × L        per table: the hasher's drawn parameters
//	                  (projections + offsets, hyperplanes, sampled bits,
//	                  permutation seeds, or rotations), then the buckets
//	                  sorted by key — each id list plus, when the bucket
//	                  carries a sketch, its m HLL registers
//	"end!"            empty terminator
//
// A covering index replaces that body with
//
//	"covr"            integer radius, dim, n, HLL geometry, cost model,
//	                  seed and the random map φ (a covering index has no
//	                  LSH family and no per-table hashers)
//	"pnts"            the points (binary)
//	"tabl" × (2^(r+1)−1)   buckets only
//
// A sharded index (kind 2) is
//
//	"smet"            metric, shard count, next global id
//	"tomb"            sorted tombstoned ids (kept so the id space's
//	                  holes survive the reload; the points themselves
//	                  are compacted out of the shards)
//	["prob" | "covr"] optional mode marker: the probe configuration T
//	                  shared by all shards (multi-probe), or the covering
//	                  radius they share (covering)
//	("sids" + one index body) × S
//	"end!"            empty terminator
//
// where each shard's "sids" section holds its local→global id map and
// is followed by the shard's own body — "meta"/"pnts"/"tabl", or the
// covering body — with per-shard seeds, hash functions and φ preserved
// exactly (a per-shard "prob" section is invalid — the probe config is
// structure level).
//
// Every entry point is one pass over one container walker: Write and
// WriteSharded dispatch each body on the store's kind, Read and
// ReadSharded on the body's first section and the mode marker, so the
// snapshot decides the serving mode and Meta reports it. Callers that
// demand a mode check Meta.RequireMode (ErrProbeMode, ErrCoverMode).
//
// docs/SNAPSHOT_FORMAT.md is the normative byte-level specification of
// everything above.
//
// # Compatibility promise
//
// Readers accept exactly the version they were built for; any layout
// change must bump the version constant, and the golden-snapshot test
// in this package fails if today's writer drifts from the checked-in
// v1 bytes. The optional "prob" and "quan" sections are the sanctioned
// in-v1 extensions: they are purely additive, so every file written
// without them is byte-identical to the original layout and loads
// unchanged (old snapshots simply restore with quantization off, and a
// reader that rebuilds them under -quant=sq8 refits the quantized copy
// from the exact points). The
// decoder is hardened against corrupt, truncated and adversarial
// input: every section is CRC-checked, every count is validated
// against the bytes actually present before allocation, and every id
// is range-checked, so malformed input yields an error — never a panic
// or an unbounded allocation (see FuzzReadSnapshot).
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/pointstore"
)

// FormatName identifies the snapshot format, magic and version
// together.
const FormatName = "hybridlsh-snap/v1"

// Version is the format version this package reads and writes. Bump it
// on any incompatible layout change.
const Version = 1

// magic opens every snapshot.
const magic = "hybridlsh-snap"

// Snapshot kinds (the header's kind byte).
const (
	kindIndex   = 1 // a plain core index
	kindSharded = 2 // a sharded index
)

// Decoder guard rails: no single section, dimension, table count or
// shard count beyond these is accepted, bounding what adversarial input
// can make the reader do.
const (
	maxSectionLen = 1 << 34 // 16 GiB per section
	maxDim        = 1 << 24
	maxTables     = 1 << 16
	maxK          = 1 << 16
	maxShards     = 1 << 16
	maxCurve      = 1 << 16
	maxProbes     = 1 << 20
)

// Sentinel errors; decode failures wrap one of these.
var (
	// ErrBadMagic marks input that is not a hybridlsh snapshot at all.
	ErrBadMagic = errors.New("persist: not a hybridlsh snapshot (bad magic)")
	// ErrVersion marks a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
	// ErrMetric marks a snapshot holding a different metric than the
	// reader asked for.
	ErrMetric = errors.New("persist: snapshot metric mismatch")
	// ErrProbeMode marks a snapshot whose probe mode is not the one its
	// caller demands (Meta.RequireMode): a multi-probe snapshot where a
	// classic index was asked for, or the reverse.
	ErrProbeMode = errors.New("persist: snapshot probe-mode mismatch")
	// ErrCoverMode marks a snapshot whose covering mode is not the one
	// its caller demands (Meta.RequireMode), or a covering snapshot read
	// under a metric other than hamming.
	ErrCoverMode = errors.New("persist: snapshot covering-mode mismatch")
	// ErrCorrupt marks structurally invalid input: truncation, CRC
	// mismatch, impossible counts or out-of-range values.
	ErrCorrupt = errors.New("persist: corrupt snapshot")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Metric identifiers recorded in snapshots. They match the root
// package's index constructors one-to-one.
const (
	MetricL2      = "l2"
	MetricL1      = "l1"
	MetricCosine  = "cosine"
	MetricHamming = "hamming"
	MetricJaccard = "jaccard"
	MetricAngular = "angular"
)

// Meta summarizes a decoded snapshot for callers that need its
// parameters (e.g. cmd/hybridserve sizing its request parsers).
type Meta struct {
	// Metric is one of the Metric* identifiers.
	Metric string
	// Dim is the ambient point dimension (bits for binary points).
	Dim int
	// N is the number of live points in the snapshot.
	N int
	// Radius and Delta are the rNNR parameters the index was built for.
	Radius, Delta float64
	// K and L are the concatenation length and table count.
	K, L int
	// Shards is the partition count (0 for a plain index).
	Shards int
	// Probes is the multi-probe configuration T recorded in the
	// snapshot's optional "prob" section (0 for a plain hybrid index).
	Probes int
	// Quant is the point-store quantization mode recorded in the
	// snapshot's optional "quan" section ("sq8"), or "off" when the
	// snapshot holds exact points only (the first shard's mode for a
	// sharded snapshot).
	Quant string
	// CoverRadius is the integer covering radius of a covering-LSH
	// snapshot (its "covr" section); 0 for every other index kind. For
	// covering snapshots Radius carries the same value as a float and L
	// is the derived table count 2^(r+1) − 1.
	CoverRadius int
	// Seed is the recorded construction seed (the first shard's for a
	// sharded snapshot).
	Seed uint64
}

// ---- header ----

func writeHeader(w io.Writer, kind byte) error {
	var hdr [len(magic) + 5]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], Version)
	hdr[len(magic)+4] = kind
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader) (kind byte, err error) {
	var hdr [len(magic) + 5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated header (%v)", ErrBadMagic, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != Version {
		return 0, fmt.Errorf("%w: snapshot has version %d, this reader handles %d", ErrVersion, v, Version)
	}
	kind = hdr[len(magic)+4]
	if kind != kindIndex && kind != kindSharded {
		return 0, corrupt("unknown snapshot kind %d", kind)
	}
	return kind, nil
}

// ---- sections ----

// writeSection frames one payload: tag, length, bytes, CRC32.
func writeSection(w io.Writer, tag string, payload []byte) error {
	if len(tag) != 4 {
		panic("persist: section tag must be 4 bytes")
	}
	var hdr [12]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// sectionStream reads consecutive sections from r, buffering at most
// one section header so callers can branch on the next tag (optional
// sections, and the per-index body dispatch of readBody).
type sectionStream struct {
	r        io.Reader
	hdr      [12]byte
	buffered bool
}

// peek returns the tag of the next section without consuming it.
func (s *sectionStream) peek() (string, error) {
	if !s.buffered {
		if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
			return "", corrupt("truncated section header (%v)", err)
		}
		s.buffered = true
	}
	return string(s.hdr[:4]), nil
}

// read reads the next section, requires its tag to be wantTag, verifies
// the CRC and returns the payload. The payload is read incrementally
// (io.CopyN into a growing buffer), so a truncated file that claims a
// huge length never causes a huge allocation.
func (s *sectionStream) read(wantTag string) ([]byte, error) {
	tag, err := s.peek()
	if err != nil {
		return nil, err
	}
	s.buffered = false
	if tag != wantTag {
		return nil, corrupt("section %q where %q was expected", tag, wantTag)
	}
	n := binary.LittleEndian.Uint64(s.hdr[4:])
	if n > maxSectionLen {
		return nil, corrupt("section %q claims %d bytes, cap is %d", tag, n, int64(maxSectionLen))
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, s.r, int64(n)); err != nil {
		return nil, corrupt("truncated section %q (%v)", tag, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(s.r, crc[:]); err != nil {
		return nil, corrupt("truncated section %q checksum (%v)", tag, err)
	}
	payload := buf.Bytes()
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, corrupt("section %q checksum mismatch (got %08x, want %08x)", tag, got, want)
	}
	return payload, nil
}

// optional returns a decoder over the payload of the section tag when it
// comes next in the stream, nil when the next section is something else.
// It is how the in-v1 extensions ("prob", "quan", the structure-level
// "covr" marker) coexist with the strict fixed order of everything else.
func (s *sectionStream) optional(tag string) (*dec, error) {
	if next, err := s.peek(); err != nil || next != tag {
		return nil, err
	}
	payload, err := s.read(tag)
	if err != nil {
		return nil, err
	}
	return &dec{b: payload}, nil
}

// readProbeSection reads an optional "prob" section at the stream's
// current position and returns T (0 when absent). The payload is a
// single u32 in [1, maxProbes].
func (s *sectionStream) readProbeSection() (int, error) {
	d, err := s.optional("prob")
	if d == nil {
		return 0, err
	}
	probes := int(d.u32())
	if err := d.done("prob"); err != nil {
		return 0, err
	}
	if probes < 1 || probes > maxProbes {
		return 0, corrupt("probe count %d outside [1,%d]", probes, maxProbes)
	}
	return probes, nil
}

// writeProbeSection writes the "prob" section recording the multi-probe
// configuration T.
func writeProbeSection(w io.Writer, probes int) error {
	if probes > maxProbes {
		return fmt.Errorf("persist: probe count %d exceeds the format cap %d", probes, maxProbes)
	}
	var e enc
	e.u32(uint32(probes))
	return writeSection(w, "prob", e.b)
}

// readQuantSection reads an optional "quan" section at the stream's
// current position and returns the recorded point-store quantization
// mode (ModeOff when absent). The payload is a single u8 mode
// identifier; sq8 (1) is the only value ever written — exact-only
// indexes write no section at all, which keeps their bytes identical to
// the pre-quantization layout.
func (s *sectionStream) readQuantSection() (pointstore.Mode, error) {
	d, err := s.optional("quan")
	if d == nil {
		return pointstore.ModeOff, err
	}
	mode := pointstore.Mode(d.u8())
	if err := d.done("quan"); err != nil {
		return pointstore.ModeOff, err
	}
	if mode != pointstore.ModeSQ8 {
		return pointstore.ModeOff, corrupt("quantization mode %d is not a valid \"quan\" payload (sq8 = %d is the only recorded mode)", mode, pointstore.ModeSQ8)
	}
	return mode, nil
}

// writeQuantSection writes the "quan" section recording the point-store
// quantization mode. Callers only emit it for modes other than off.
func writeQuantSection(w io.Writer, mode pointstore.Mode) error {
	var e enc
	e.u8(uint8(mode))
	return writeSection(w, "quan", e.b)
}

// ---- payload encoding ----

// enc accumulates a section payload.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) f32(v float32) {
	e.u32(math.Float32bits(v))
}
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		panic("persist: string too long")
	}
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(len(s)))
	e.b = append(e.b, s...)
}

// ---- payload decoding ----

// dec consumes a section payload with a sticky error: after the first
// failure every read returns a zero value, so call sites can decode
// linearly and check err (or done) once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt(format, args...)
	}
}

// rem returns the number of unread payload bytes.
func (d *dec) rem() int { return len(d.b) - d.off }

// need reserves n bytes, failing the decoder if they are not present.
func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.rem() < n {
		d.fail("payload truncated: need %d bytes, have %d", n, d.rem())
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f32() float32 { return math.Float32frombits(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// count reads a u64 element count and validates it against the bytes
// remaining in the payload at elemSize bytes per element, so no
// allocation is ever sized by a count the data cannot back.
func (d *dec) count(elemSize int, what string) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.rem())/uint64(elemSize) {
		d.fail("%s count %d exceeds the %d payload bytes left", what, n, d.rem())
		return 0
	}
	return int(n)
}

// done verifies the payload was consumed exactly.
func (d *dec) done(section string) error {
	if d.err != nil {
		return d.err
	}
	if d.rem() != 0 {
		return corrupt("section %q has %d trailing bytes", section, d.rem())
	}
	return nil
}

// ---- misc plumbing ----

// countWriter counts bytes for the io.WriterTo-style return values.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFileAtomic writes a snapshot to path atomically: the payload
// goes to a temporary file in the same directory, is synced, and is
// renamed over path only on success, so a crash or error mid-write
// never leaves a partial snapshot behind. It returns the bytes written.
func WriteFileAtomic(path string, write func(io.Writer) (int64, error)) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return 0, err
	}
	n, err := write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return n, nil
}
