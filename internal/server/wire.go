package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"math/bits"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/bufpool"
)

// A 200 from /query or /batch is built here rather than by writeJSON: a
// report carries thousands of ids, and encoding/json reaching each one
// through reflection was a third of the node's CPU. Only the id array is
// hand-written. Every other field of QueryResult is still encoded by
// encoding/json — from QueryResult itself, so there is no second field
// list — and spliced in behind the array, which keeps float formatting,
// omitempty and HTML escaping what they were. testdata/wire-*.json pins
// the bytes.

// nullIDs is how encoding/json opens a QueryResult whose IDs are nil; the
// hand-written array replaces exactly this prefix.
const nullIDs = `{"ids":null`

// digitPairs[i] is the two ASCII digits of i < 100, the first in the
// low byte, as a little-endian store lays them out.
var digitPairs = func() (t [100]uint64) {
	for i := range t {
		t[i] = uint64('0'+i/10) | uint64('0'+i%10)<<8
	}
	return t
}()

// idChunk is how many ids appendIDs writes per growth of the buffer.
const idChunk = 512

// appendIDs appends ids as the comma-separated elements of a JSON array.
// An id in [0, 10^8) is written by one 8-byte store: its eight digits,
// leading zeros included, built from four digitPairs entries, shifted
// right past the leading zeros so the store starts at its first digit;
// the bytes it writes past them are overwritten by the comma and the
// next id, or lie beyond the returned length. Ids are never negative or
// that large; one that is still comes out right, through strconv.
func appendIDs(b []byte, ids []int32) []byte {
	if len(ids) == 0 {
		return b
	}
	for c := range slices.Chunk(ids, idChunk) {
		n := len(b)
		// An id's worst case is "-2147483648," and the store's overhang.
		b = slices.Grow(b, len(c)*12+8)
		w := b[:cap(b)]
		for _, id := range c {
			if uint32(id) >= 100_000_000 {
				n = len(strconv.AppendInt(w[:n], int64(id), 10))
			} else {
				hi, lo := uint32(id)/10_000, uint32(id)%10_000
				d := digitPairs[hi/100] | digitPairs[hi%100]<<16 | digitPairs[lo/100]<<32 | digitPairs[lo%100]<<48
				// Leading zeros are the low '0' bytes; the units digit
				// always stays.
				z := bits.TrailingZeros64((d^0x3030303030303030)|1<<56) / 8
				binary.LittleEndian.PutUint64(w[n:], d>>(8*z))
				n += 8 - z
			}
			w[n] = ','
			n++
		}
		b = w[:n]
	}
	return b[:len(b)-1]
}

// appendResult appends res as a JSON object without a trailing newline.
// buf is left as it was when the tail cannot be encoded (a NaN timing).
func appendResult(buf *bufpool.Buf, res *QueryResult) error {
	start := len(buf.B)
	buf.B = append(buf.B, `{"ids":[`...)
	buf.B = appendIDs(buf.B, res.IDs)
	buf.B = append(buf.B, ']')
	mark := len(buf.B)
	// The tail is res itself with the ids set aside for the length of the
	// call: a copy handed to encoding/json would go to the heap.
	ids := res.IDs
	res.IDs = nil
	err := json.NewEncoder(buf).Encode(res)
	res.IDs = ids
	if err == nil && !bytes.HasPrefix(buf.B[mark:], []byte(nullIDs)) {
		err = fmt.Errorf("QueryResult no longer encodes with %s first", nullIDs)
	}
	if err != nil {
		buf.B = buf.B[:start]
		return err
	}
	// Close the gap over `{"ids":null` and drop Encode's newline.
	n := copy(buf.B[mark:], buf.B[mark+len(nullIDs):len(buf.B)-1])
	buf.B = buf.B[:mark+n]
	return nil
}

// writeResult answers a /query with res.
func writeResult(w http.ResponseWriter, res *QueryResult) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	err := appendResult(buf, res)
	buf.B = append(buf.B, '\n')
	writeWire(w, buf.B, err)
}

// writeResults answers a /batch: {"results":[…]}.
func writeResults(w http.ResponseWriter, results []*QueryResult) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	buf.B = append(buf.B, `{"results":[`...)
	var err error
	for i, res := range results {
		if i > 0 {
			buf.B = append(buf.B, ',')
		}
		if err = appendResult(buf, res); err != nil {
			break
		}
	}
	buf.B = append(buf.B, "]}\n"...)
	writeWire(w, buf.B, err)
}

// writeWire sends a finished 200 body in one Write. The Content-Length
// lets the router size its relay buffer once. An answer that could not
// be encoded fails whole, since nothing has been sent yet.
func writeWire(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		log.Printf("hybridserve: encoding response: %v", err)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		log.Printf("hybridserve: writing response: %v", err)
	}
}
