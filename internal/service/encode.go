package service

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
)

// The entry-result encoder. Every response that carries entry results
// (stream frame replies, /v1/reconstruct, /v1/count, /v1/batch and
// /v1/query) is written by the appendJSON methods below instead of by
// reflection. Each writes exactly the bytes encoding/json writes for
// the same value, struct tags and all; the tags stay the specification
// and TestEntryEncoderMatchesEncodingJSON holds the two together.
// Control lines and error-only responses still go through
// encoding/json.

// jsonAppender is a response that appends its own JSON encoding.
type jsonAppender interface {
	appendJSON(dst []byte) []byte
}

// respBufs recycles writeJSON's buffers for appended responses.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResp bounds the buffers respBufs and a stream connection
// keep, so one huge reply does not pin its memory.
const maxPooledResp = 1 << 20

// plainJSON marks the bytes encoding/json copies into a string
// unescaped: printable ASCII other than the quote, the backslash and
// the HTML characters <, > and &.
var plainJSON = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendJSONString appends s as encoding/json writes it. Strings that
// need no escaping, such as rendered bit vectors, are copied; any other
// string is encoded by encoding/json itself, HTML escaping included.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// appendArray appends xs as a JSON array, each element written by elem,
// or null for a nil slice.
func appendArray[T any](dst []byte, xs []T, elem func(*T, []byte) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(&xs[i], dst)
	}
	return append(dst, ']')
}

func (er *entryResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"trace_cycle":`...)
	dst = appendInt(dst, er.TraceCycle)
	dst = append(dst, `,"tp":`...)
	dst = appendJSONString(dst, er.TP)
	dst = append(dst, `,"k":`...)
	dst = appendInt(dst, er.K)
	if len(er.Candidates) > 0 {
		dst = append(dst, `,"candidates":`...)
		dst = appendArray(dst, er.Candidates, func(c *string, dst []byte) []byte { return appendJSONString(dst, *c) })
	}
	if len(er.Changes) > 0 {
		dst = append(dst, `,"changes":`...)
		dst = appendArray(dst, er.Changes, func(cs *[]int, dst []byte) []byte {
			return appendArray(dst, *cs, func(x *int, dst []byte) []byte { return appendInt(dst, *x) })
		})
	}
	dst = append(dst, `,"count":`...)
	dst = appendInt(dst, er.Count)
	dst = append(dst, `,"exhausted":`...)
	dst = strconv.AppendBool(dst, er.Exhausted)
	if er.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if er.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	return append(dst, '}')
}

func (r streamFrameReply) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"frame":`...)
	dst = appendInt(dst, r.Frame)
	if r.Status != 0 {
		dst = append(dst, `,"status":`...)
		dst = appendInt(dst, r.Status)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	if r.TraceCycleBase != 0 {
		dst = append(dst, `,"trace_cycle_base":`...)
		dst = appendInt(dst, r.TraceCycleBase)
	}
	if len(r.Results) > 0 {
		dst = append(dst, `,"results":`...)
		dst = appendArray(dst, r.Results, (*entryResponse).appendJSON)
	}
	return append(dst, '}')
}

func (r jobResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"m":`...)
	dst = appendInt(dst, r.M)
	dst = append(dst, `,"b":`...)
	dst = appendInt(dst, r.B)
	dst = append(dst, `,"results":`...)
	dst = appendArray(dst, r.Results, (*entryResponse).appendJSON)
	return append(dst, '}')
}

func (r batchResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"m":`...)
	dst = appendInt(dst, r.M)
	dst = append(dst, `,"b":`...)
	dst = appendInt(dst, r.B)
	dst = append(dst, `,"jobs":`...)
	dst = appendArray(dst, r.Jobs, func(j *batchJobResult, dst []byte) []byte {
		dst = append(dst, `{"index":`...)
		dst = appendInt(dst, j.Index)
		dst = append(dst, `,"status":`...)
		dst = appendInt(dst, j.Status)
		if j.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, j.Error)
		}
		if len(j.Results) > 0 {
			dst = append(dst, `,"results":`...)
			dst = appendArray(dst, j.Results, (*entryResponse).appendJSON)
		}
		return append(dst, '}')
	})
	return append(dst, '}')
}

func (r queryResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"device":`...)
	dst = appendJSONString(dst, r.Device)
	dst = append(dst, `,"signal":`...)
	dst = appendJSONString(dst, r.Signal)
	dst = append(dst, `,"m":`...)
	dst = appendInt(dst, r.M)
	dst = append(dst, `,"b":`...)
	dst = appendInt(dst, r.B)
	dst = append(dst, `,"records":`...)
	dst = appendArray(dst, r.Records, func(rec *queryRecordResult, dst []byte) []byte {
		dst = append(dst, `{"epoch_us":`...)
		dst = strconv.AppendInt(dst, rec.EpochUS, 10)
		dst = append(dst, `,"trace_cycle_base":`...)
		dst = strconv.AppendInt(dst, rec.TraceCycleBase, 10)
		dst = append(dst, `,"results":`...)
		dst = appendArray(dst, rec.Results, (*entryResponse).appendJSON)
		return append(dst, '}')
	})
	if r.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}')
}
