package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/shard"
)

// WAL fsync policies: when an appended frame is forced to stable
// storage.
const (
	// FsyncAlways fsyncs after every appended frame, so a mutation is
	// durable before its HTTP response is written (the ack implies the
	// frame survives a crash).
	FsyncAlways = "always"
	// FsyncInterval fsyncs from a background loop every FsyncInterval;
	// a crash can lose up to one interval of acknowledged frames.
	FsyncInterval = "interval"
	// FsyncOff never fsyncs on its own (the OS decides); explicit Sync
	// calls still flush.
	FsyncOff = "off"
)

// DefaultSegmentBytes is the rotation threshold: a segment that has
// grown past it is closed and a fresh one opened.
const DefaultSegmentBytes = 64 << 20

// DefaultFsyncInterval paces the FsyncInterval background flush.
const DefaultFsyncInterval = 100 * time.Millisecond

// walSuffix names segment files: 000001.wal, 000002.wal, ...
const walSuffix = ".wal"

// WALOptions tunes OpenWAL. The zero value means the defaults
// documented per field.
type WALOptions struct {
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size (default DefaultSegmentBytes). A single frame larger
	// than the cap still lands whole — rotation happens between frames,
	// never inside one.
	SegmentBytes int64
	// Fsync is one of FsyncAlways (default), FsyncInterval, FsyncOff.
	Fsync string
	// SyncEvery paces the FsyncInterval loop (default
	// DefaultFsyncInterval).
	SyncEvery time.Duration
	// StartSeq is the sequence number the first appended frame will
	// carry when the directory is empty (default 1). Ignored when the
	// directory holds segments — the recovered cursor wins.
	StartSeq uint64
}

func (o WALOptions) withDefaults() (WALOptions, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	switch o.Fsync {
	case "":
		o.Fsync = FsyncAlways
	case FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return o, fmt.Errorf("replica: wal fsync policy %q, want %s, %s or %s", o.Fsync, FsyncAlways, FsyncInterval, FsyncOff)
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultFsyncInterval
	}
	if o.StartSeq == 0 {
		o.StartSeq = 1
	}
	return o, nil
}

// WALRecovery reports what OpenWAL found on disk: the authoritative
// epoch and cursor, the intact frames to replay, and how much damage
// recovery cut away.
type WALRecovery struct {
	// Epoch is the writer incarnation recorded on disk (the caller's
	// header epoch when the directory was empty). A recovered writer
	// must resume this epoch, or every follower re-hydrates for
	// nothing.
	Epoch uint64
	// FirstSeq is the sequence number of Frames[0]; when FirstSeq > 1
	// the prefix [1, FirstSeq) was truncated after a snapshot covered
	// it, and replay needs that snapshot as its base.
	FirstSeq uint64
	// LastSeq is the last intact sequence number (FirstSeq-1 when no
	// frames survived).
	LastSeq uint64
	// Frames holds the intact frames, bit-for-bit as appended,
	// contiguous from FirstSeq.
	Frames [][]byte
	// TruncatedBytes counts tail bytes cut from the first damaged
	// segment (a torn write or bit flip).
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded after the first
	// damaged one (their frames would leave a sequence gap).
	DroppedSegments int
}

// walSegment is one on-disk segment's bookkeeping.
type walSegment struct {
	index    uint64 // numeric file name
	firstSeq uint64
	path     string
}

// WAL is a segmented, durable write-ahead log of delta frames. Append
// is called by Log.record under the log mutex, so frames land on disk
// in exactly the commit order followers see; OpenWAL replays the
// longest intact prefix after a crash. All methods are safe for
// concurrent use.
type WAL struct {
	dir     string
	opt     WALOptions
	hdr     persist.DeltaHeader
	hdrSize int64

	mu      sync.Mutex
	f       *os.File
	segs    []walSegment // oldest first; the last one is active
	size    int64        // active segment size in bytes
	nextSeq uint64
	dirty   bool // bytes written since the last fsync
	err     error
	closed  bool

	appended  int64
	rotations int64
	truncated int64 // segments removed by TruncateThrough

	stop chan struct{} // FsyncInterval loop
	done chan struct{}
}

// WALStats is a point-in-time snapshot for /stats and tests.
type WALStats struct {
	Dir         string `json:"dir"`
	Fsync       string `json:"fsync"`
	Segments    int    `json:"segments"`
	ActiveBytes int64  `json:"active_bytes"`
	FirstSeq    uint64 `json:"first_seq"`
	LastSeq     uint64 `json:"last_seq"`
	Appended    int64  `json:"appended_frames"`
	Rotations   int64  `json:"rotations"`
	Truncations int64  `json:"truncated_segments"`
	Err         string `json:"error,omitempty"`
}

// OpenWAL opens (creating if needed) the segmented WAL in dir and
// recovers whatever intact frames it holds. Recovery keeps the longest
// intact prefix: it stops at the first torn or corrupt frame, truncates
// that segment back to its last good frame boundary, and drops every
// later segment (their frames would leave a sequence gap). The caller's
// hdr supplies the epoch for a fresh directory and must match the
// recovered metric and dimension otherwise; the recovered epoch — not
// hdr's — is authoritative, and the caller must adopt it (see
// WALRecovery.Epoch). A first segment whose header cannot be read is a
// hard error rather than a silent empty log: the directory holds state
// this code cannot interpret, and guessing would fork the epoch.
func OpenWAL(dir string, hdr persist.DeltaHeader, opt WALOptions) (*WAL, *WALRecovery, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("replica: wal: %w", err)
	}
	w := &WAL{
		dir:     dir,
		opt:     opt,
		hdr:     hdr,
		hdrSize: int64(persist.WALSegmentHeaderSize(hdr.Metric)),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	rec := &WALRecovery{Epoch: hdr.Epoch, FirstSeq: opt.StartSeq, LastSeq: opt.StartSeq - 1}
	if len(segs) == 0 {
		w.nextSeq = opt.StartSeq
		if err := w.newSegmentLocked(opt.StartSeq); err != nil {
			return nil, nil, err
		}
	} else {
		if err := w.recover(segs, rec); err != nil {
			return nil, nil, err
		}
	}
	if opt.Fsync == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, rec, nil
}

// listSegments finds NNNNNN.wal files in dir, sorted numerically.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("replica: wal: %w", err)
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if err != nil || idx == 0 {
			return nil, fmt.Errorf("replica: wal: %s is not a segment file (want NNNNNN%s)", name, walSuffix)
		}
		segs = append(segs, walSegment{index: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// recover scans the segments oldest-first and retains the longest
// intact frame prefix, repairing the directory in place: the first
// damaged segment is truncated to its last good frame boundary and
// every segment after it is deleted.
func (w *WAL) recover(segs []walSegment, rec *WALRecovery) error {
	keep := segs[:0]
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("replica: wal: %w", err)
		}
		hdr, hlen, herr := persist.ReadWALSegmentHeader(bytes.NewReader(data))
		if i == 0 {
			if herr != nil {
				return fmt.Errorf("replica: wal: segment %s header: %w", seg.path, herr)
			}
			if hdr.Delta.Metric != w.hdr.Metric || hdr.Delta.Dim != w.hdr.Dim {
				return fmt.Errorf("replica: wal: segment %s holds metric %q dim %d, this index is %q dim %d",
					seg.path, hdr.Delta.Metric, hdr.Delta.Dim, w.hdr.Metric, w.hdr.Dim)
			}
			rec.Epoch = hdr.Delta.Epoch
			w.hdr.Epoch = hdr.Delta.Epoch
			rec.FirstSeq = hdr.FirstSeq
			rec.LastSeq = hdr.FirstSeq - 1
			w.nextSeq = hdr.FirstSeq
		} else if herr != nil || hdr.Delta != w.hdr || hdr.FirstSeq != w.nextSeq {
			// A torn rotation (or cross-segment damage): this segment and
			// everything after it cannot extend the sequence.
			rec.DroppedSegments += len(segs) - i
			break
		}
		seg.firstSeq = hdr.FirstSeq
		off := int64(hlen)
		torn := false
		for off < int64(len(data)) {
			n, err := persist.ScanDeltaFrame(data[off:], w.nextSeq)
			if err != nil {
				torn = true
				break
			}
			rec.Frames = append(rec.Frames, data[off:off+int64(n)])
			rec.LastSeq = w.nextSeq
			w.nextSeq++
			off += int64(n)
		}
		keep = append(keep, seg)
		if torn {
			rec.TruncatedBytes = int64(len(data)) - off
			if err := os.Truncate(seg.path, off); err != nil {
				return fmt.Errorf("replica: wal: truncating %s: %w", seg.path, err)
			}
			rec.DroppedSegments += len(segs) - i - 1
			break
		}
	}
	for _, seg := range segs[len(keep):] {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("replica: wal: dropping %s: %w", seg.path, err)
		}
	}
	if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
		w.syncDir()
	}
	w.segs = append([]walSegment(nil), keep...)
	active := w.segs[len(w.segs)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("replica: wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("replica: wal: %w", err)
	}
	w.f = f
	w.size = st.Size()
	return nil
}

// newSegmentLocked closes the active segment (if any) and opens the
// next one, writing its header durably before any frame can land in it.
func (w *WAL) newSegmentLocked(firstSeq uint64) error {
	index := uint64(1)
	if n := len(w.segs); n > 0 {
		index = w.segs[n-1].index + 1
	}
	path := filepath.Join(w.dir, fmt.Sprintf("%06d%s", index, walSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("replica: wal: %w", err)
	}
	var buf bytes.Buffer
	if err := persist.WriteWALSegmentHeader(&buf, persist.WALSegmentHeader{Delta: w.hdr, FirstSeq: firstSeq}); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("replica: wal: %w", err)
	}
	if w.f != nil {
		if w.dirty {
			w.f.Sync() // old frames must not outlive the rotation unsynced
			w.dirty = false
		}
		w.f.Close()
		w.rotations++
	}
	w.syncDir()
	w.f = f
	w.size = int64(buf.Len())
	w.segs = append(w.segs, walSegment{index: index, firstSeq: firstSeq, path: path})
	return nil
}

// syncDir fsyncs the directory so renames/creates/removes survive a
// crash. Best effort: not every filesystem supports directory fsync,
// and the segment contents themselves are already synced.
func (w *WAL) syncDir() { persist.SyncDir(w.dir) }

// Append writes one encoded frame carrying seq, rotating and fsyncing
// per the options. seq must be exactly the next sequence number — the
// caller (Log.record) assigns them contiguously. An I/O failure is
// sticky: the on-disk log would have a hole, so the WAL refuses all
// further appends and the caller's log latches with it.
func (w *WAL) Append(seq uint64, frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("replica: wal: append on a closed WAL")
	}
	if w.err != nil {
		return w.err
	}
	if seq != w.nextSeq {
		return fmt.Errorf("replica: wal: append seq %d, want %d", seq, w.nextSeq)
	}
	if w.size+int64(len(frame)) > w.opt.SegmentBytes && w.size > w.hdrSize {
		if err := w.newSegmentLocked(seq); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("replica: wal: append frame %d: %w", seq, err)
		return w.err
	}
	w.size += int64(len(frame))
	w.nextSeq = seq + 1
	w.appended++
	if w.opt.Fsync == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("replica: wal: fsync frame %d: %w", seq, err)
			return w.err
		}
	} else {
		w.dirty = true
	}
	return nil
}

// Sync flushes the active segment to stable storage (a no-op when
// nothing is dirty). Explicit syncs work under every fsync policy —
// snapshotting and shutdown call this regardless of FsyncOff.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("replica: wal: fsync: %w", err)
		return w.err
	}
	w.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.Sync() // an error latches; Append surfaces it
		}
	}
}

// TruncateThrough removes segments entirely covered by a durable
// snapshot: a segment may go once the NEXT segment's first frame is
// <= seq+1 (every frame it held is covered). The active segment always
// survives, so the cursor and epoch remain recoverable even when the
// snapshot covers everything.
func (w *WAL) TruncateThrough(seq uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segs) > 1 && w.segs[1].firstSeq <= seq+1 {
		if err := os.Remove(w.segs[0].path); err != nil {
			return removed, fmt.Errorf("replica: wal: truncating %s: %w", w.segs[0].path, err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		w.truncated += int64(removed)
		w.syncDir()
	}
	return removed, nil
}

// LastSeq returns the last appended (or recovered) sequence number.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Stats snapshots the WAL's bookkeeping.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WALStats{
		Dir:         w.dir,
		Fsync:       w.opt.Fsync,
		Segments:    len(w.segs),
		ActiveBytes: w.size,
		LastSeq:     w.nextSeq - 1,
		Appended:    w.appended,
		Rotations:   w.rotations,
		Truncations: w.truncated,
	}
	if len(w.segs) > 0 {
		st.FirstSeq = w.segs[0].firstSeq
	}
	if w.err != nil {
		st.Err = w.err.Error()
	}
	return st
}

// Close flushes and closes the WAL. Further appends fail; the on-disk
// state is exactly what a crash at this instant would leave (plus the
// final flush).
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	stop, done := w.stop, w.done
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.f != nil {
		if w.dirty {
			err = w.f.Sync()
			w.dirty = false
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// ReplayRaw applies recovered raw frames onto a store through the same
// decode-and-apply path a follower uses: the frames join a synthetic
// hybridlsh-delta/v1 stream under hdr and replay via the deterministic
// replay methods. Frames already covered by the store's base snapshot
// are absorbed idempotently (the snapshot/delta overlap property).
func ReplayRaw[P any](sh *shard.Sharded[P], hdr persist.DeltaHeader, frames [][]byte) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	var stream bytes.Buffer
	if err := persist.WriteDeltaHeader(&stream, hdr); err != nil {
		return 0, err
	}
	for _, f := range frames {
		stream.Write(f)
	}
	dr, err := persist.NewDeltaReader[P](&stream, hdr.Metric)
	if err != nil {
		return 0, err
	}
	applied := 0
	for {
		frame, err := dr.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, fmt.Errorf("replica: wal replay: %w", err)
		}
		if err := Apply(sh, frame); err != nil {
			return applied, fmt.Errorf("replica: wal replay frame %d: %w", frame.Seq, err)
		}
		applied++
	}
}
