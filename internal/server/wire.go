package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
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

// digitPairs holds "00" "01" … "99", so two digits cost one division.
const digitPairs = "" +
	"0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// decimalLen is the number of digits in u's decimal form.
func decimalLen(u uint32) int {
	switch {
	case u < 10:
		return 1
	case u < 100:
		return 2
	case u < 1_000:
		return 3
	case u < 10_000:
		return 4
	case u < 100_000:
		return 5
	case u < 1_000_000:
		return 6
	case u < 10_000_000:
		return 7
	case u < 100_000_000:
		return 8
	case u < 1_000_000_000:
		return 9
	}
	return 10
}

// appendIDs appends ids as the comma-separated elements of a JSON array.
// Ids are never negative; one that is still comes out right.
func appendIDs(b []byte, ids []int32) []byte {
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		if id < 0 {
			b = strconv.AppendInt(b, int64(id), 10)
			continue
		}
		u := uint32(id)
		b = append(b, "0000000000"[:decimalLen(u)]...)
		p := len(b)
		for u >= 100 {
			d := u % 100 * 2
			u /= 100
			p -= 2
			b[p], b[p+1] = digitPairs[d], digitPairs[d+1]
		}
		if u >= 10 {
			b[p-2], b[p-1] = digitPairs[u*2], digitPairs[u*2+1]
		} else {
			b[p-1] = '0' + byte(u)
		}
	}
	return b
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
