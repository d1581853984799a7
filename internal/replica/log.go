// Package replica is the distributed serving tier: it generalizes
// shard.Sharded's in-process fan-out one level up, across processes.
//
// The moving parts, writer side to reader side:
//
//   - Log is the writer's bounded in-memory delta log: every mutation of
//     the primary's Sharded, encoded as one hybridlsh-delta/v1 frame
//     (internal/persist) with a monotonically increasing sequence
//     number, under a snapshot epoch that identifies the writer
//     incarnation.
//   - Recorder adapts shard.Journal onto a Log, so installing it via
//     Sharded.SetJournal journals every Append/Delete/Compact in commit
//     order.
//   - Source serves the replication protocol over HTTP: GET /snapshot
//     streams a consistent snapshot stamped with the epoch and the
//     sequence number it covers; GET /delta?after=N returns the frames
//     past N; GET /replica/status reports the cursor.
//   - Follower hydrates a fresh replica from a Source's snapshot and
//     tails its delta log, applying frames through the Sharded replay
//     methods (ApplyAppend, Delete, CompactExact) so the replica
//     converges to id-identical answers — and re-hydrates from scratch
//     whenever the epoch changes or the log has trimmed past its
//     cursor.
//   - Router fans queries out to a replica set: quorum-less reads over
//     healthy replicas with per-replica timeouts, hedged retries,
//     exponential-backoff health checking and lag-based demotion.
//
// docs/REPLICATION.md specifies the wire protocol and the failure
// matrix the chaos tests in this package cover.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
)

// DefaultLogCap is the default number of delta frames a Log retains.
// Followers that fall further behind than the retention window get
// ErrTrimmed and re-hydrate from a fresh snapshot.
const DefaultLogCap = 4096

// ErrTrimmed reports that the log no longer holds the frames after the
// requested cursor: the follower is too far behind and must re-hydrate
// from a snapshot. Source surfaces it as HTTP 410 Gone.
var ErrTrimmed = errors.New("replica: delta log trimmed past the requested cursor")

// Log is a bounded, thread-safe, in-memory write-ahead delta log: the
// encoded hybridlsh-delta/v1 frames of one writer epoch, in sequence
// order. It stores frames pre-encoded (a Recorder encodes under the
// mutation's own locks) so serving a tail is a lock-copy-unlock of
// byte-slice references.
type Log struct {
	hdr persist.DeltaHeader

	mu     sync.Mutex
	frames [][]byte // frames[i] carries sequence number first+i
	gone   int      // the slots of frames' array before frames[0], trimmed
	bytes  int64    // the retained frames' bytes
	first  uint64   // sequence number of frames[0]; 1 until trimming starts
	next   uint64   // next sequence number to assign (last assigned + 1)
	cap    int
	err    error // sticky encode/WAL failure; the log refuses to serve past it
	wal    *WAL  // optional durable spill; nil keeps the log memory-only

	// errs counts mutations the log refused or failed to record — every
	// one is a frame followers will never see. Surfaced as
	// hybridlsh_deltalog_errors_total so a latched log is visible to
	// operators instead of silently serving errors to followers.
	errs atomic.Int64
}

// NewLog opens an empty log for one writer epoch. capFrames bounds
// retention (<= 0 means DefaultLogCap).
func NewLog(hdr persist.DeltaHeader, capFrames int) *Log {
	if capFrames <= 0 {
		capFrames = DefaultLogCap
	}
	return &Log{hdr: hdr, first: 1, next: 1, cap: capFrames}
}

// RestoreLog rebuilds a log from recovered state: frames holds the
// encoded frames carrying sequence numbers firstSeq, firstSeq+1, ...
// (as WALRecovery reports them), and the log resumes assigning from
// the frame after the last one. A promotion restores with no frames at
// a cursor > 0: the new epoch starts counting from the promoted
// follower's replayed position.
func RestoreLog(hdr persist.DeltaHeader, capFrames int, firstSeq uint64, frames [][]byte) *Log {
	l := NewLog(hdr, capFrames)
	if firstSeq == 0 {
		firstSeq = 1
	}
	l.first = firstSeq
	l.next = firstSeq + uint64(len(frames))
	l.frames = append([][]byte(nil), frames...)
	if over := len(l.frames) - l.cap; over > 0 {
		l.frames = append([][]byte(nil), l.frames[over:]...)
		l.first += uint64(over)
	}
	for _, f := range l.frames {
		l.bytes += int64(cap(f))
	}
	return l
}

// AttachWAL spills every subsequent record to w, in commit order (the
// append happens under the log mutex, after encoding and before the
// frame becomes visible to Since). The WAL's cursor must already match
// the log's — attach immediately after NewLog/RestoreLog, before the
// recorder is installed.
func (l *Log) AttachWAL(w *WAL) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wal = w
}

// Sync flushes the attached WAL (a no-op for a memory-only log).
func (l *Log) Sync() error {
	l.mu.Lock()
	w := l.wal
	l.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Sync()
}

// Errors returns how many mutations the log failed or refused to
// record since construction (each one is a lost frame).
func (l *Log) Errors() int64 { return l.errs.Load() }

// Header returns the log's delta header (epoch, metric, dim).
func (l *Log) Header() persist.DeltaHeader { return l.hdr }

// Epoch returns the writer incarnation this log extends.
func (l *Log) Epoch() uint64 { return l.hdr.Epoch }

// Seq returns the last assigned sequence number (0 before any record).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Err returns the sticky encode failure, if any. A log with a non-nil
// Err has lost frames and must not serve deltas (followers re-hydrate).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// record assigns the next sequence number, encodes the frame through
// encode and retains it, trimming the oldest frame past the retention
// cap. An encode failure is sticky: the sequence would have a hole, so
// the log stops accepting and serving (in-memory encoding of valid
// index state does not realistically fail; this is a safety latch, not
// a recovery path).
func (l *Log) record(encode func(seq uint64) ([]byte, error)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		l.errs.Add(1) // latched: this mutation's frame is lost too
		return
	}
	frame, err := encode(l.next)
	if err != nil {
		l.err = fmt.Errorf("replica: delta frame %d: %w", l.next, err)
		l.errs.Add(1)
		return
	}
	if l.wal != nil {
		if err := l.wal.Append(l.next, frame); err != nil {
			// The frame never reached disk: latch before retaining it, or a
			// crash would lose an acknowledged mutation the in-memory log
			// kept serving.
			l.err = fmt.Errorf("replica: delta frame %d: %w", l.next, err)
			l.errs.Add(1)
			return
		}
	}
	if len(l.frames) == cap(l.frames) {
		l.gone = 0 // the append moves the list to a new array
	}
	l.frames = append(l.frames, frame)
	l.bytes += int64(cap(frame))
	l.next++
	if over := len(l.frames) - l.cap; over > 0 {
		// Trim by reslicing: the list's array is copied only when an
		// append outgrows it, at amortized O(1) per record.
		for _, f := range l.frames[:over] {
			l.bytes -= int64(cap(f))
		}
		clear(l.frames[:over])
		l.frames = l.frames[over:]
		l.gone += over
		l.first += uint64(over)
	}
}

// Bytes is the memory the retained frames hold: their bytes and the
// frame list's array.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes + 24*int64(l.gone+cap(l.frames))
}

// Since returns up to maxFrames encoded frames with sequence numbers
// strictly greater than after, plus the sequence number of the last
// frame returned (= after when there are none). It returns ErrTrimmed
// when frames after the cursor have been trimmed, and the sticky encode
// error when the log is latched.
func (l *Log) Since(after uint64, maxFrames int) ([][]byte, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, after, l.err
	}
	if after+1 < l.first {
		return nil, after, ErrTrimmed
	}
	last := l.next - 1
	if after >= last {
		return nil, after, nil
	}
	lo := int(after + 1 - l.first)
	hi := len(l.frames)
	if maxFrames > 0 && hi-lo > maxFrames {
		hi = lo + maxFrames
	}
	out := make([][]byte, hi-lo)
	copy(out, l.frames[lo:hi])
	return out, l.first + uint64(hi) - 1, nil
}

// Recorder adapts shard.Journal onto a Log: install it with
// Sharded.SetJournal and every mutation becomes one delta frame, in
// commit order (the Sharded calls journal methods under the mutation's
// own locks, see shard.Journal's ordering guarantees).
type Recorder[P any] struct{ log *Log }

// NewRecorder binds a recorder to its log. The log's header must carry
// the metric and dimension of the Sharded being journaled.
func NewRecorder[P any](log *Log) *Recorder[P] { return &Recorder[P]{log: log} }

// JournalAppend implements shard.Journal.
func (r *Recorder[P]) JournalAppend(shard int, base int32, points []P) {
	r.log.record(func(seq uint64) ([]byte, error) {
		return persist.EncodeDeltaFrame(r.log.hdr, persist.DeltaFrame[P]{
			Seq: seq, Kind: persist.DeltaAppend, Shard: shard, Base: base, Points: points,
		})
	})
}

// JournalDelete implements shard.Journal.
func (r *Recorder[P]) JournalDelete(ids []int32) {
	r.log.record(func(seq uint64) ([]byte, error) {
		return persist.EncodeDeltaFrame(r.log.hdr, persist.DeltaFrame[P]{
			Seq: seq, Kind: persist.DeltaDelete, IDs: ids,
		})
	})
}

// SyncJournal implements shard.Journal: it forces the log's
// durable spill (if any) to stable storage, so a snapshot can claim a
// prefix is covered before WAL retention truncates it.
func (r *Recorder[P]) SyncJournal() error { return r.log.Sync() }

// JournalCompact implements shard.Journal.
func (r *Recorder[P]) JournalCompact(shard int, removed []int32) {
	r.log.record(func(seq uint64) ([]byte, error) {
		return persist.EncodeDeltaFrame(r.log.hdr, persist.DeltaFrame[P]{
			Seq: seq, Kind: persist.DeltaCompact, Shard: shard, IDs: removed,
		})
	})
}
