package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/shard"
)

// ErrRehydrate reports that tailing cannot continue from the current
// cursor — the source's epoch changed (writer restarted) or the log
// trimmed past the cursor (follower too far behind) — and the follower
// must hydrate from a fresh snapshot.
var ErrRehydrate = errors.New("replica: cursor invalid, re-hydrate from snapshot")

// ErrReleased reports that the follower has handed its store off to a
// promotion (Release) and will never hydrate or poll again.
var ErrReleased = errors.New("replica: follower released for promotion")

// maxSnapshotBytes bounds what Hydrate will read from a source; a
// snapshot larger than this fails hydration rather than memory.
const maxSnapshotBytes = 16 << 30

// Follower hydrates a replica from a Source's snapshot and tails its
// delta log, applying each frame through the Sharded replay methods so
// the replica's answers converge to the writer's, id for id. It owns
// the replica store: Store returns the current hydration (re-hydration
// swaps in a fresh one atomically, so readers never see a half-applied
// state).
type Follower[P any] struct {
	base   string // source base URL, no trailing slash
	hc     *http.Client
	metric string // persist metric identifier the source must serve

	store atomic.Pointer[shard.Sharded[P]]

	tailMu   sync.Mutex // serializes Hydrate/Poll (the only cursor writers)
	released bool       // guarded by tailMu; set once by Release
	epoch    atomic.Uint64
	seq      atomic.Uint64
	metaMu   sync.Mutex
	meta     persist.Meta

	// Convergence observability.
	polls      atomic.Int64
	applied    atomic.Int64
	rehydrates atomic.Int64
	// The latest hydration's decode, as the snapshot streamed in.
	loadNanos, loadBytes atomic.Int64
}

// NewFollower prepares a follower for a source serving the given persist
// metric; the snapshot itself decides the serving mode (classic,
// multi-probe or covering shards). client may be nil
// (http.DefaultClient).
func NewFollower[P any](sourceURL string, client *http.Client, metric string) *Follower[P] {
	if client == nil {
		client = http.DefaultClient
	}
	for len(sourceURL) > 0 && sourceURL[len(sourceURL)-1] == '/' {
		sourceURL = sourceURL[:len(sourceURL)-1]
	}
	return &Follower[P]{base: sourceURL, hc: client, metric: metric}
}

// Store returns the current replica store (nil before the first
// successful Hydrate).
func (f *Follower[P]) Store() *shard.Sharded[P] { return f.store.Load() }

// Meta returns the decoded snapshot metadata of the current hydration.
func (f *Follower[P]) Meta() persist.Meta {
	f.metaMu.Lock()
	defer f.metaMu.Unlock()
	return f.meta
}

// Cursor returns the epoch and the last applied sequence number. It
// never blocks behind an in-flight Hydrate or Poll, so status and
// health endpoints stay responsive under replication stalls.
func (f *Follower[P]) Cursor() (epoch, seq uint64) {
	return f.epoch.Load(), f.seq.Load()
}

// Rehydrates returns how many times the follower threw its state away
// and hydrated from scratch (the first Hydrate counts).
func (f *Follower[P]) Rehydrates() int64 { return f.rehydrates.Load() }

// LastLoad returns how long the latest successful hydration took to
// decode its snapshot as it streamed in, and how many bytes it read
// (zero before the first).
func (f *Follower[P]) LastLoad() (time.Duration, int64) {
	return time.Duration(f.loadNanos.Load()), f.loadBytes.Load()
}

// Applied returns the total frames applied since construction.
func (f *Follower[P]) Applied() int64 { return f.applied.Load() }

// ServeStatus reports the follower-side cursor (mount as GET
// /replica/status on a replica, so routers can measure lag).
func (f *Follower[P]) ServeStatus(w http.ResponseWriter, r *http.Request) {
	epoch, seq := f.Cursor()
	writeStatus(w, StatusResponse{
		Format: persist.DeltaFormatName,
		Role:   "follower",
		Epoch:  epoch,
		Seq:    seq,
	})
}

// Hydrate fetches GET /snapshot, decodes it and swaps it in as the
// replica store, resetting the cursor to the epoch and sequence number
// the source stamped on the response. Auto-compaction is disabled on
// the hydrated store: compactions replay exactly as journaled, never
// on the replica's own clock (a self-timed compaction would sweep a
// different tombstone set than the writer journaled and diverge the
// bucket state).
func (f *Follower[P]) Hydrate(ctx context.Context) error {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.released {
		return ErrReleased
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replica: snapshot fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot fetch: %s", resp.Status)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response lacks %s", HeaderEpoch)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: snapshot response lacks %s", HeaderSeq)
	}
	body := &countingReader{r: io.LimitReader(resp.Body, maxSnapshotBytes)}
	t0 := time.Now()
	sh, meta, err := persist.ReadSharded[P](body, f.metric)
	if err != nil {
		return fmt.Errorf("replica: snapshot decode: %w", err)
	}
	f.loadNanos.Store(int64(time.Since(t0)))
	f.loadBytes.Store(body.n)
	sh.SetAutoCompact(1) // >= 1 disables; replays drive compaction

	f.metaMu.Lock()
	f.meta = meta
	f.metaMu.Unlock()
	f.epoch.Store(epoch)
	f.seq.Store(seq)
	f.store.Store(sh)
	f.rehydrates.Add(1)
	return nil
}

// Poll fetches GET /delta?after=<cursor> once and applies the frames.
// It returns how many frames it applied, and ErrRehydrate when the
// cursor is no longer tailable (epoch change, trimmed log, or a first
// frame that does not follow the cursor). Damage later in the body is
// an error wrapping persist.ErrCorrupt; the frames before it stay
// applied and the cursor stays on the last of them.
func (f *Follower[P]) Poll(ctx context.Context) (int, error) {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.released {
		return 0, ErrReleased
	}
	sh := f.store.Load()
	if sh == nil {
		return 0, ErrRehydrate
	}
	f.polls.Add(1)
	cursor := f.seq.Load()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.base+"/delta?after="+strconv.FormatUint(cursor, 10), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("replica: delta fetch: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, fmt.Errorf("%w: %s", ErrRehydrate, "log trimmed")
	default:
		return 0, fmt.Errorf("replica: delta fetch: %s", resp.Status)
	}
	// Buffer the body before applying: a mid-stream reset then corrupts
	// the decode, not the store (frames are applied only after their CRC
	// checks out, and a truncated tail aborts before any partial frame).
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return 0, fmt.Errorf("replica: delta fetch: %w", err)
	}
	hdr, off, err := persist.ReadDeltaHeader(bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("replica: delta decode: %w", err)
	}
	dd, err := persist.NewDeltaDecoder[P](hdr, f.metric)
	if err != nil {
		return 0, fmt.Errorf("replica: delta decode: %w", err)
	}
	if epoch := f.epoch.Load(); hdr.Epoch != epoch {
		return 0, fmt.Errorf("%w: source epoch %d, cursor epoch %d", ErrRehydrate, hdr.Epoch, epoch)
	}
	applied := 0
	for b := body[off:]; len(b) > 0; {
		// The first frame may carry any seq (one that does not follow
		// the cursor means re-hydrate); every later one must follow it.
		want := cursor + 1
		if applied == 0 {
			want = 0
		}
		frame, n, err := dd.Decode(b, want)
		if err != nil {
			return applied, fmt.Errorf("replica: delta decode after seq %d: %w", cursor, err)
		}
		if frame.Seq != cursor+1 {
			return applied, fmt.Errorf("%w: frame seq %d after cursor %d", ErrRehydrate, frame.Seq, cursor)
		}
		if err := Apply(sh, frame); err != nil {
			return applied, fmt.Errorf("replica: apply frame %d: %w", frame.Seq, err)
		}
		cursor = frame.Seq
		f.seq.Store(cursor)
		f.applied.Add(1)
		applied++
		b = b[n:]
	}
	return applied, nil
}

// Run tails the source until ctx is done: hydrate if needed, then poll
// every interval, re-hydrating on ErrRehydrate and backing off
// exponentially (capped at 32× the interval) on transport errors so a
// partitioned follower does not spin.
func (f *Follower[P]) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	fails := 0
	for {
		var err error
		if f.Store() == nil {
			err = f.Hydrate(ctx)
		} else {
			_, err = f.Poll(ctx)
			if errors.Is(err, ErrRehydrate) {
				err = f.Hydrate(ctx)
			}
		}
		if errors.Is(err, ErrReleased) {
			return // promoted: the store is a writer's now
		}
		if err != nil && ctx.Err() == nil {
			fails++
		} else {
			fails = 0
		}
		wait := interval
		if fails > 0 {
			shift := fails
			if shift > 5 {
				shift = 5
			}
			wait = interval << shift
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// Release hands the follower's store off for promotion: it stops the
// follower permanently (Hydrate and Poll return ErrReleased, Run
// exits) and returns the store with the cursor it had converged to.
// The caller owns the store from here — typically re-enabling
// compaction and installing a journal at a fresh epoch seeded from the
// returned sequence number. Fails when the follower never hydrated.
func (f *Follower[P]) Release() (*shard.Sharded[P], uint64, uint64, error) {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.released {
		return nil, 0, 0, ErrReleased
	}
	sh := f.store.Load()
	if sh == nil {
		return nil, 0, 0, errors.New("replica: release before first hydrate")
	}
	f.released = true
	return sh, f.epoch.Load(), f.seq.Load(), nil
}

// Apply replays one decoded delta frame onto a replica store through
// the deterministic replay methods. It is exported so snapshot+delta
// replay can run without HTTP (the property tests replay a Log's
// frames directly).
func Apply[P any](sh *shard.Sharded[P], f persist.DeltaFrame[P]) error {
	switch f.Kind {
	case persist.DeltaAppend:
		return sh.ApplyAppend(f.Shard, f.Base, f.Points)
	case persist.DeltaDelete:
		sh.Delete(f.IDs) // idempotent: already-dead ids are ignored
		return nil
	case persist.DeltaCompact:
		_, err := sh.CompactExact(f.Shard, f.IDs)
		return err
	}
	return fmt.Errorf("replica: unknown delta frame kind %d", f.Kind)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
