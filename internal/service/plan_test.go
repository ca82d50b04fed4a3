package service

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/logstore"
)

// TestJobPlanner drives the planner steps — decodeWire, resolveSpec,
// planJob, here through a one-job planBatch — over one row per way a
// job can be malformed, plus the well-formed shapes. Every rejection
// is a 400 the caller applies its own error policy to.
func TestJobPlanner(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 3, 7) // one entry, m=16, b=9
	corrupt := append([]byte(nil), wire...)
	corrupt[len(corrupt)-1] ^= 0x80 // a set pad bit
	spec16 := EncodingSpec{M: 16, B: 9}
	const tp = "101010101"

	for _, tc := range []struct {
		name    string
		enc     EncodingSpec
		job     jobSpec
		wantErr string // substring of the 400's message; "" = planned
		items   int
		limit   int
	}{
		{name: "inline tp/k", enc: spec16, job: jobSpec{TP: tp, K: 1}, items: 1, limit: defaultReconstructLimit},
		{name: "wire lends m and b", job: jobSpec{Log: wire}, items: 1, limit: defaultReconstructLimit},
		{name: "cycles select", job: jobSpec{Log: wire, Cycles: []int{0}}, items: 1, limit: defaultReconstructLimit},
		{name: "count-only default", enc: spec16, job: jobSpec{TP: tp, CountOnly: true}, items: 1, limit: defaultCountLimit},
		{name: "negative limit", enc: spec16, job: jobSpec{TP: tp, Limit: -7}, items: 1, limit: -1},
		{name: "corrupt wire", enc: spec16, job: jobSpec{Log: corrupt}, wantErr: "pad"},
		{name: "header/spec mismatch", enc: EncodingSpec{M: 32, B: 11}, job: jobSpec{Log: wire}, wantErr: "does not match"},
		{name: "partial spec mismatch", enc: EncodingSpec{M: 32}, job: jobSpec{Log: wire}, wantErr: "does not match"},
		{name: "cycle out of range", job: jobSpec{Log: wire, Cycles: []int{1}}, wantErr: "outside [0,1)"},
		{name: "more cycles than entries", job: jobSpec{Log: wire, Cycles: []int{0, 0}}, wantErr: "2 cycles requested from a 1-entry log"},
		{name: "tp width", enc: spec16, job: jobSpec{TP: "1010", K: 1}, wantErr: "tp width 4"},
		{name: "tp and log", enc: spec16, job: jobSpec{TP: tp, Log: wire}, wantErr: "not both"},
		{name: "bad properties", enc: spec16, job: jobSpec{TP: tp, Properties: "gibberish("}, wantErr: "properties"},
		{name: "cycles on an inline job", enc: spec16, job: jobSpec{TP: tp, Cycles: []int{0}}, wantErr: "inline tp/k job"},
		{name: "neither tp nor log", enc: spec16, job: jobSpec{}, wantErr: "need tp/k"},
		{name: "unusable spec", enc: EncodingSpec{Scheme: "warbler", M: 16, B: 9}, job: jobSpec{TP: tp}, wantErr: "encoding"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, plans, errs, err := planBatch(batchRequest{Encoding: tc.enc, Jobs: []jobSpec{tc.job}})
			if err == nil {
				err = errs[0]
			}
			if tc.wantErr != "" {
				code, msg := errorStatus(err)
				if err == nil || code != http.StatusBadRequest || !strings.Contains(msg, tc.wantErr) {
					t.Fatalf("got %v (status %d), want a 400 containing %q", err, code, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if spec.M != 16 || spec.B != 9 {
				t.Fatalf("resolved m=%d b=%d, want 16/9", spec.M, spec.B)
			}
			p := plans[0]
			if len(p.items) != tc.items || p.opts.limit != tc.limit || p.opts.countOnly != tc.job.CountOnly {
				t.Fatalf("planned %d items, limit %d, count-only %t; want %d, %d, %t",
					len(p.items), p.opts.limit, p.opts.countOnly, tc.items, tc.limit, tc.job.CountOnly)
			}
		})
	}
}

// TestQueryStoredCorruptionIs502 pins the query path's own error
// policy: a stored frame whose header passed append-time validation
// but whose payload fails the planner's decode is the store's fault
// (502), not the request's.
func TestQueryStoredCorruptionIs502(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	_, base, _ := startServer(t, Config{Store: st}, 0)
	wire, _ := testLog(t, 16, 9, 4)
	wire[len(wire)-1] ^= 0x80
	if _, err := st.Append(logstore.Record{Device: "d", Signal: "s", Epoch: 1, Body: wire}); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, base+"/v1/query", map[string]any{"device": "d", "signal": "s"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("corrupt stored frame: %d %s, want 502", resp.StatusCode, raw)
	}
}
