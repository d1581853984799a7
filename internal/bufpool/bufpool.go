// Package bufpool recycles the byte buffers a request or a report
// crosses the machine in: the node reads a /query, /batch or /append body
// into one and builds a /query or /batch answer in another, the router
// reads each replica's answer into one.
//
// Ownership: whoever called Get owns the buffer until it calls Put, and
// Put is only legal once nothing else can still read or write B — the
// bytes were written to the client, or the read that filled them
// returned and nothing decoded from them aliases B. A buffer another
// goroutine may still hold (the router's losing hedge attempt) is never
// Put; the collector takes it.
package bufpool

import (
	"errors"
	"io"
	"slices"
	"sync"
)

// maxPooled is the largest capacity Put keeps. A report is ~90 KB; one
// multi-megabyte /batch answer must not stay pinned in the pool.
const maxPooled = 1 << 20

// Buf is an append buffer. It is an io.Writer so encoding/json can
// append to it.
type Buf struct{ B []byte }

func (b *Buf) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Get returns an empty buffer, with whatever capacity its last use left.
func Get() *Buf {
	b := pool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Put recycles b unless it grew past maxPooled.
func Put(b *Buf) {
	if cap(b.B) <= maxPooled {
		pool.Put(b)
	}
}

// ErrTooLarge marks a body longer than the limit ReadBody was given.
var ErrTooLarge = errors.New("body over the limit")

// ReadBody appends r, read to its end, to dst. A stated length (a
// Content-Length; -1 when unknown) that fits the limit sizes dst once;
// otherwise it doubles. One byte past the limit is read so that a body of
// exactly limit bytes is told from a longer one, which fails with
// ErrTooLarge rather than being returned cut off.
func ReadBody(dst []byte, r io.Reader, stated, limit int64) ([]byte, error) {
	if stated > 0 && stated <= limit {
		// One spare byte, so the read that reports EOF needs no regrow.
		dst = slices.Grow(dst, int(stated)+1)
	}
	start := len(dst)
	r = io.LimitReader(r, limit+1)
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(512, len(dst)))
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	if int64(len(dst)-start) > limit {
		return dst, ErrTooLarge
	}
	return dst, nil
}
