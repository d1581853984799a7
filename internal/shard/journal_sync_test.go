package shard_test

import (
	"errors"
	"testing"

	"repro/internal/shard"
)

// syncJournal is a memJournal whose sink pretends to be durable: it
// counts flushes and can fail them.
type syncJournal struct {
	memJournal
	syncs   int
	syncErr error
}

func (s *syncJournal) SyncJournal() error {
	s.syncs++
	return s.syncErr
}

func TestSyncJournal(t *testing.T) {
	points, _ := clustered(220, 8, 8, 0.01, 31)
	sh, err := shard.New(points[:200], 2, 5, l2Builder(8, 0.4))
	if err != nil {
		t.Fatal(err)
	}

	// No journal: a successful no-op.
	if err := sh.SyncJournal(); err != nil {
		t.Fatalf("SyncJournal with no journal: %v", err)
	}

	// A syncing journal: flushed, and its error surfaces.
	j := &syncJournal{}
	sh.SetJournal(j)
	if _, err := sh.Append(points[200:]); err != nil {
		t.Fatal(err)
	}
	if err := sh.SyncJournal(); err != nil {
		t.Fatalf("SyncJournal: %v", err)
	}
	if j.syncs != 1 {
		t.Fatalf("journal flushed %d times, want 1", j.syncs)
	}
	j.syncErr = errors.New("disk full")
	if err := sh.SyncJournal(); !errors.Is(err, j.syncErr) {
		t.Fatalf("SyncJournal error %v, want %v", err, j.syncErr)
	}
}
