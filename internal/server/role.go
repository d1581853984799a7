package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
)

// role is one immutable description of where the node stands in the
// replication topology. Handlers load it once per request and act on
// that value; POST /promote builds the writer role and swaps it in
// atomically, so no request ever sees half of the old role and half of
// the new.
type role struct {
	// readOnly turns the mutating endpoints into 403s (any -hydrate mode).
	readOnly bool
	// Writers journal every mutation into log and serve it to replicas
	// through source; wal is the log's durable spill (-waldir).
	log    *replica.Log
	source *replica.Source
	wal    *replica.WAL
	// -hydrate URL replicas carry the follower and its tail loop's stop.
	follower follower
	stopTail func()
	// recal is the drift-loop actor (writers with -recalibrate=auto): it
	// refits α/β from the drift windows when time_ratio leaves the dead
	// band, and backs POST /recalibrate. Replicas must answer
	// id-identically to their writer, and a local refit could flip an
	// LSH/linear strategy choice; refits are not journaled, so replicas
	// run none and adopt new constants through the next snapshot epoch.
	recal *obs.Recalibrator
}

// followerPollEvery is the delta-tail poll interval on -hydrate URL
// replicas; steady-state convergence lag is bounded by roughly one poll
// plus the frames' apply time.
const followerPollEvery = 100 * time.Millisecond

// startTail runs f's tail loop in the background. The returned stop
// cancels it and returns once it has exited: no poll is in flight and the
// follower's cursor no longer moves.
func startTail(f follower) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx, followerPollEvery)
	}()
	return func() { cancel(); <-done }
}

// errWALNotEmpty is the promotion refusal a used -waldir earns (409).
var errWALNotEmpty = errors.New("promotion needs an empty WAL directory")

// becomeWriter is the one bring-up path of the writer role over s.be:
// boot calls it with from == nil, POST /promote with the follower role
// (tail loop already stopped, cursor frozen) it is about to replace.
// Every writer is a replication source: mutations are journaled as delta
// frames, and GET /snapshot + GET /delta serve hydration and tailing.
//
// The epoch is this process incarnation. Without a WAL a restart gets a
// fresh one, forcing replicas back through the snapshot (the in-memory
// log died with the old process). With -waldir the log survives: the
// recovered epoch and cursor win, so a warm-restarted writer resumes
// exactly where the crash cut it off and followers keep tailing without
// a re-hydrate. A promotion mints a new epoch above the follower's and
// starts the journal right after its converged cursor; mixing that with
// another incarnation's segments would make the next recovery resume
// the wrong epoch, so the WAL directory must be empty.
//
// Everything fallible on a promotion happens before the follower is
// released: a refusal leaves s.be untouched and the caller resumes
// tailing.
func (s *Server) becomeWriter(from *role) (*role, error) {
	cfg := &s.cfg
	hdr := persist.DeltaHeader{Epoch: uint64(time.Now().UnixNano()), Metric: cfg.Metric, Dim: cfg.Dim}
	after := uint64(0) // the journal resumes at after+1
	if from != nil {
		oldEpoch, seq := from.follower.Cursor()
		hdr.Epoch = max(hdr.Epoch, oldEpoch+1) // clock skew: epochs must still advance
		after = seq
	}
	first, frames := after+1, [][]byte(nil)
	var wal *replica.WAL
	if cfg.WALDir != "" {
		w, rec, err := replica.OpenWAL(cfg.WALDir, hdr, replica.WALOptions{
			SegmentBytes: cfg.WALSeg, Fsync: cfg.Fsync, StartSeq: first,
		})
		if err != nil {
			return nil, fmt.Errorf("waldir %s: %w", cfg.WALDir, err)
		}
		switch {
		case from != nil:
			if rec.Epoch != hdr.Epoch || rec.LastSeq != after {
				err = fmt.Errorf("waldir %s holds epoch %d frames through seq %d: %w", cfg.WALDir, rec.Epoch, rec.LastSeq, errWALNotEmpty)
			}
		case rec.FirstSeq > 1 && s.loadedFrom == "":
			// Snapshot-driven retention truncated the prefix [1,FirstSeq);
			// replaying the suffix onto a synthetic base would silently
			// drop those mutations.
			err = fmt.Errorf("waldir %s starts at seq %d: the truncated prefix lives in a snapshot, boot with -snapshot pointing at it", cfg.WALDir, rec.FirstSeq)
		case len(rec.Frames) > 0:
			// Replay exactly as a follower would: auto-compaction off, so
			// journaled compactions land as recorded, never on this boot's
			// own clock. (A snapshot base may already cover a prefix of the
			// frames; replay absorbs the overlap idempotently, same as
			// hydration.)
			s.be.store().SetAutoCompact(1)
			var applied int
			if applied, err = s.be.replayDelta(hdr, rec.Frames); err != nil {
				err = fmt.Errorf("waldir %s: replaying frame %d: %w", cfg.WALDir, rec.FirstSeq+uint64(applied), err)
			}
		}
		if err != nil {
			w.Close()
			return nil, err
		}
		if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
			log.Printf("hybridserve: wal recovery cut %d torn tail bytes and dropped %d segments", rec.TruncatedBytes, rec.DroppedSegments)
		}
		if len(rec.Frames) > 0 {
			log.Printf("hybridserve: wal %s replayed %d frames, resuming epoch %d at seq %d", cfg.WALDir, len(rec.Frames), rec.Epoch, rec.LastSeq)
		}
		hdr.Epoch = rec.Epoch // disk wins: followers key on the epoch
		first, frames, wal = rec.FirstSeq, rec.Frames, w
	}
	if from != nil {
		if err := s.be.releaseFollower(); err != nil {
			if wal != nil {
				wal.Close()
			}
			return nil, err
		}
	}
	dlog := replica.RestoreLog(hdr, cfg.LogCap, first, frames)
	if wal != nil {
		dlog.AttachWAL(wal)
	}
	// Replicas never self-compact (compactions replay exactly as the
	// writer journaled them); a writer does, on its own clock.
	s.be.store().SetAutoCompact(cfg.CompactThresh)
	// Installed after any WAL replay, so replayed frames are never
	// re-journaled.
	s.be.installJournal(dlog)
	w := &role{log: dlog, wal: wal, source: &replica.Source{Log: dlog, WriteSnapshot: s.writeSnapshot}}
	if cfg.Recalibrate == "auto" {
		w.recal = obs.NewRecalibrator(s.reg, s.metrics.Drift,
			func() core.CostModel { return s.be.store().Cost() },
			func(c core.CostModel) error { return s.be.store().SetCost(c) },
			obs.RecalibratorConfig{}, log.Printf)
	}
	return w, nil
}

// handlePromote flips a tailing follower into the writer: the tail loop
// is stopped, and becomeWriter starts a fresh log (plus WAL, with
// -waldir) at a new epoch seeded from the converged cursor — appends,
// compaction and (if the operator asked for it) recalibration come back
// to life. The old epoch's frames stay behind on the old writer;
// followers of the new writer re-hydrate onto the new epoch, which the
// router detects (see cmd/hybridrouter). A refused promotion resumes
// tailing: the node stays the healthy follower it was, and the operator
// can retry once the cause (a used -waldir) is gone.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	ro := s.role.Load()
	switch {
	case !ro.readOnly:
		writeErr(w, http.StatusConflict, errors.New("already the writer"))
		return
	case ro.follower == nil:
		writeErr(w, http.StatusConflict, errors.New("static replica (-hydrate path): no delta cursor to promote from"))
		return
	}
	// Stop the tail loop first, so no frame from the old writer lands
	// after the cursor is read.
	ro.stopTail()
	oldEpoch, seq := ro.follower.Cursor()
	next, err := s.becomeWriter(ro)
	if err != nil {
		resumed := *ro
		resumed.stopTail = startTail(ro.follower)
		s.role.Store(&resumed)
		status := http.StatusInternalServerError
		if errors.Is(err, errWALNotEmpty) {
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	s.role.Store(next)
	log.Printf("hybridserve: promoted to writer at epoch %d, resuming after seq %d (old epoch %d)", next.log.Epoch(), seq, oldEpoch)
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "epoch": next.log.Epoch(), "seq": seq})
}

// mutating gates a write endpoint on the current role: replicas take no
// direct writes (mutations flow through the writer and reach them via
// the delta log) until a promotion flips readOnly off. The route itself
// is always mounted, so a follower answers a clear 403 rather than a
// generic 404 and promotion needs no mux rebuild.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.role.Load().readOnly {
			writeErr(w, http.StatusForbidden,
				fmt.Errorf("read-only replica: %s is only served by the writer (this server was started with -hydrate)", r.URL.Path))
			return
		}
		h(w, r)
	}
}

// feed serves one of the writer's replication feeds — GET /snapshot for
// hydration, GET /delta for tailing. Only a writer has them (a replica's
// copy may be mid-convergence).
func (s *Server) feed(serve func(*replica.Source, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if src := s.role.Load().source; src != nil {
			serve(src, w, r)
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("not a writer: no %s feed (hydrate from and tail the writer)", r.URL.Path[1:]))
	}
}

// handleReplStatus is GET /replica/status, dispatched on the current
// role: the writer reports its log cursor, a tailing follower its
// convergence cursor, a static replica a pinned epoch-0 status.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	switch ro := s.role.Load(); {
	case ro.source != nil:
		ro.source.ServeStatus(w, r)
	case ro.follower != nil:
		ro.follower.ServeStatus(w, r)
	default:
		writeJSON(w, http.StatusOK, replica.StatusResponse{Format: persist.DeltaFormatName, Role: "static"})
	}
}
