package replica_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/vector"
)

// TestFollowerPollErrorClasses serves crafted /delta bodies to a
// hydrated follower and checks which error class each one surfaces and
// where the cursor stops: a cursor the source cannot continue is
// ErrRehydrate, damage inside the body is ErrCorrupt with the frames
// before it applied.
func TestFollowerPollErrorClasses(t *testing.T) {
	hdr := persist.DeltaHeader{Epoch: 21, Metric: persist.MetricL2, Dim: replayDim}
	writer := fuzzWALBase(t)
	lg := replica.NewLog(hdr, 0)
	writer.SetJournal(replica.NewRecorder[vector.Dense](lg))
	spare := denseReplayData(60, 9)[40:]
	if _, err := writer.Append(spare[:3]); err != nil {
		t.Fatal(err)
	}
	snapSeq := lg.Seq()
	var snap bytes.Buffer
	if _, err := persist.WriteSharded(&snap, hdr.Metric, writer); err != nil {
		t.Fatal(err)
	}
	ids, err := writer.Append(spare[3:6])
	if err != nil {
		t.Fatal(err)
	}
	writer.Delete(ids[:1])
	if _, err := writer.Append(spare[6:8]); err != nil {
		t.Fatal(err)
	}
	frames, _, err := lg.Since(snapSeq, 0)
	if err != nil || len(frames) != 3 {
		t.Fatalf("Since(%d) = %d frames, %v; want 3", snapSeq, len(frames), err)
	}

	body := func(epoch uint64, fs ...[]byte) []byte {
		var b bytes.Buffer
		h := hdr
		h.Epoch = epoch
		if err := persist.WriteDeltaHeader(&b, h); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			b.Write(f)
		}
		return b.Bytes()
	}
	badCRC := append([]byte(nil), frames[1]...)
	badCRC[len(badCRC)-1] ^= 0x01

	cases := []struct {
		name    string
		status  int
		body    []byte
		wantErr error // nil: a clean poll
		applied int
	}{
		{"log trimmed", http.StatusGone, nil, replica.ErrRehydrate, 0},
		{"new epoch, no frames", http.StatusOK, body(hdr.Epoch + 1), replica.ErrRehydrate, 0},
		{"first seq skips", http.StatusOK, body(hdr.Epoch, frames[1], frames[2]), replica.ErrRehydrate, 0},
		{"crc flip mid-body", http.StatusOK, body(hdr.Epoch, frames[0], badCRC, frames[2]), persist.ErrCorrupt, 1},
		{"seq gap mid-body", http.StatusOK, body(hdr.Epoch, frames[0], frames[2]), persist.ErrCorrupt, 1},
		{"clean", http.StatusOK, body(hdr.Epoch, frames...), nil, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(replica.HeaderEpoch, strconv.FormatUint(hdr.Epoch, 10))
				w.Header().Set(replica.HeaderSeq, strconv.FormatUint(snapSeq, 10))
				w.Write(snap.Bytes())
			})
			mux.HandleFunc("GET /delta", func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Query().Get("after") != strconv.FormatUint(snapSeq, 10) {
					http.Error(w, "unexpected cursor", http.StatusBadRequest)
					return
				}
				w.WriteHeader(tc.status)
				w.Write(tc.body)
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			f := replica.NewFollower[vector.Dense](srv.URL, srv.Client(), persist.MetricL2)
			ctx := context.Background()
			if err := f.Hydrate(ctx); err != nil {
				t.Fatalf("Hydrate: %v", err)
			}
			n, err := f.Poll(ctx)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("Poll: %v", err)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("Poll error %v, want one wrapping %v", err, tc.wantErr)
			}
			if n != tc.applied || f.Applied() != int64(tc.applied) {
				t.Fatalf("Poll applied %d (Applied() %d), want %d", n, f.Applied(), tc.applied)
			}
			if epoch, seq := f.Cursor(); epoch != hdr.Epoch || seq != snapSeq+uint64(tc.applied) {
				t.Fatalf("cursor (%d, %d), want (%d, %d)", epoch, seq, hdr.Epoch, snapSeq+uint64(tc.applied))
			}
			if tc.wantErr == nil {
				sh := f.Store()
				if sh.N() != writer.N() || sh.Deleted() != writer.Deleted() {
					t.Fatalf("follower N=%d Deleted=%d, writer N=%d Deleted=%d",
						sh.N(), sh.Deleted(), writer.N(), writer.Deleted())
				}
			}
		})
	}
}
