package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// randText returns a string that is usually a rendered bit vector and
// sometimes free text needing escapes: HTML characters, quotes,
// control bytes, U+2028 and invalid UTF-8.
func randText(r *rand.Rand) string {
	if r.Intn(3) > 0 {
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = "01"[r.Intn(2)]
		}
		return string(b)
	}
	parts := []string{"0", "1", "<", ">", "&", `"`, `\`, "\n", "\t", "\x01", "é", "\u2028", "\xff", "frame 3: ", "ok"}
	var b bytes.Buffer
	for n := r.Intn(8); n > 0; n-- {
		b.WriteString(parts[r.Intn(len(parts))])
	}
	return b.String()
}

func randInts(r *rand.Rand) []int {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	xs := make([]int, 1+r.Intn(4))
	for i := range xs {
		xs[i] = r.Intn(1<<20) - 8
	}
	return xs
}

func randEntry(r *rand.Rand) entryResponse {
	er := entryResponse{TraceCycle: r.Intn(1 << 16), TP: randText(r), K: r.Intn(9)}
	if r.Intn(8) == 0 {
		er.TraceCycle = 0
	}
	er.Count, er.Exhausted = r.Intn(5000), r.Intn(2) == 1
	er.Cached, er.Coalesced = r.Intn(3) == 0, r.Intn(4) == 0
	if r.Intn(4) == 0 { // count-only: no candidate lists
		return er
	}
	if r.Intn(5) > 0 {
		er.Candidates = []string{}
		er.Changes = [][]int{}
		for n := r.Intn(4); n > 0; n-- {
			er.Candidates = append(er.Candidates, randText(r))
			er.Changes = append(er.Changes, randInts(r))
		}
	}
	if r.Intn(6) == 0 {
		er.Changes = nil
	}
	return er
}

func randEntries(r *rand.Rand) []entryResponse {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []entryResponse{}
	}
	rs := make([]entryResponse, 1+r.Intn(4))
	for i := range rs {
		rs[i] = randEntry(r)
	}
	return rs
}

// TestEntryEncoderMatchesEncodingJSON is the appender's property test:
// for random values of the four response shapes that carry entry
// results, appendJSON writes exactly the bytes json.Marshal writes.
// The values cover count-only results, nil against empty Changes (and
// inner change lists), Cached and Coalesced, zero and non-zero
// trace_cycle_base, error frames, and batch errors, devices and signals
// holding <>&" and other characters encoding/json escapes.
func TestEntryEncoderMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(shape string, v jsonAppender) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.appendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%s:\n got: %s\nwant: prefix%s", shape, got, want)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		frame := streamFrameReply{Frame: r.Intn(1000), Results: randEntries(r)}
		if r.Intn(2) == 0 {
			frame.TraceCycleBase = r.Intn(1 << 20)
		}
		if r.Intn(4) == 0 {
			frame.Status, frame.Error, frame.Results = 400+r.Intn(200), randText(r), nil
		}
		check("stream frame", frame)

		check("job", jobResponse{M: r.Intn(1024), B: r.Intn(64), Results: randEntries(r)})

		batch := batchResponse{M: r.Intn(1024), B: r.Intn(64)}
		if r.Intn(6) > 0 {
			batch.Jobs = []batchJobResult{}
			for n := r.Intn(4); n > 0; n-- {
				jr := batchJobResult{Index: r.Intn(64), Status: 200, Results: randEntries(r)}
				if r.Intn(3) == 0 {
					jr.Status, jr.Error, jr.Results = 400, `tp: bitvec: invalid character '<' at 0 & "more"`+randText(r), nil
				}
				batch.Jobs = append(batch.Jobs, jr)
			}
		}
		check("batch", batch)

		query := queryResponse{Device: randText(r), Signal: randText(r), M: r.Intn(1024), B: r.Intn(64), Truncated: r.Intn(3) == 0}
		if r.Intn(6) > 0 {
			query.Records = []queryRecordResult{}
			for n := r.Intn(3); n > 0; n-- {
				query.Records = append(query.Records, queryRecordResult{
					EpochUS: r.Int63(), TraceCycleBase: r.Int63n(1 << 40), Results: randEntries(r),
				})
			}
		}
		check("query", query)
	}
}
