// Package bufpool recycles the byte buffers a report leaves the machine
// through: the node builds a /query or /batch answer in one, the router
// reads each replica's answer into one.
//
// Ownership: whoever called Get owns the buffer until it calls Put, and
// Put is only legal once nothing else can still read or write B — the
// bytes were written to the client, or the read that filled them
// returned. A buffer another goroutine may still hold (the router's
// losing hedge attempt) is never Put; the collector takes it.
package bufpool

import "sync"

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
