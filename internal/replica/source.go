package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/persist"
)

// Replication protocol headers. GET /snapshot stamps its response with
// the epoch and the delta sequence number the snapshot covers, so a
// follower knows exactly where to start tailing.
const (
	HeaderEpoch = "X-Hybridlsh-Epoch"
	HeaderSeq   = "X-Hybridlsh-Seq"
)

// DefaultDeltaBatch caps the frames one GET /delta response carries; a
// catching-up follower simply polls again.
const DefaultDeltaBatch = 512

// Source serves one writer's replication feed over HTTP: the snapshot
// replicas hydrate from and the delta log they tail between snapshots.
type Source struct {
	// Log is the writer's delta log.
	Log *Log
	// WriteSnapshot streams a consistent snapshot of the writer's index
	// (e.g. persist.WriteSharded under Sharded.Snapshot).
	WriteSnapshot func(w io.Writer) (int64, error)
	// MaxBatch caps frames per GET /delta response (<= 0 means
	// DefaultDeltaBatch).
	MaxBatch int
}

// ServeSnapshot streams a snapshot stamped with the epoch and the delta
// sequence number it covers. The sequence number is read *before* the
// snapshot's consistent view is taken, so frames recorded in between
// are covered by both the snapshot and the tail the follower replays —
// an overlap the replay methods absorb idempotently. (Reading it after
// would instead open a gap: a frame recorded mid-snapshot and absorbed
// by neither.)
func (s *Source) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	seq := s.Log.Seq()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.Log.Epoch(), 10))
	w.Header().Set(HeaderSeq, strconv.FormatUint(seq, 10))
	if _, err := s.WriteSnapshot(w); err != nil {
		// Headers are gone; the truncated body fails the follower's
		// snapshot decode, which is the error path we want anyway.
		return
	}
}

// ServeDelta returns the delta frames after the follower's cursor
// (?after=N): the hybridlsh-delta/v1 header followed by up to MaxBatch
// frames. A cursor the log has trimmed past gets 410 Gone — the
// follower must re-hydrate from /snapshot.
func (s *Source) ServeDelta(w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "bad after cursor", http.StatusBadRequest)
		return
	}
	frames, _, err := s.Log.Since(after, s.maxBatch())
	if errors.Is(err, ErrTrimmed) {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.Log.Epoch(), 10))
	if err := persist.WriteDeltaHeader(w, s.Log.Header()); err != nil {
		return
	}
	for _, f := range frames {
		if _, err := w.Write(f); err != nil {
			return
		}
	}
}

// StatusResponse is the GET /replica/status body: where in the
// replication stream this process stands.
type StatusResponse struct {
	// Format names the delta wire format served or followed.
	Format string `json:"format"`
	// Role is "source" for a writer serving its own log, "follower" for
	// a replica tailing one.
	Role string `json:"role"`
	// Epoch is the writer incarnation; Seq the last sequence number
	// recorded (source) or applied (follower).
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// ServeStatus reports the writer-side cursor.
func (s *Source) ServeStatus(w http.ResponseWriter, r *http.Request) {
	writeStatus(w, StatusResponse{
		Format: persist.DeltaFormatName,
		Role:   "source",
		Epoch:  s.Log.Epoch(),
		Seq:    s.Log.Seq(),
	})
}

func (s *Source) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return DefaultDeltaBatch
}

func writeStatus(w http.ResponseWriter, st StatusResponse) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		// Connection-level failure; nothing sensible to do.
		_ = fmt.Errorf("replica: status encode: %w", err)
	}
}
