package service

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

// FuzzBatchRequest throws arbitrary bytes at the batch body parser and
// the job planner every ingest path shares — wire decode, spec
// resolution, per-job planning (the property and bitvec parsers, the
// cycles bounds) — and asserts it never panics and never plans work a
// request did not ask for.
func FuzzBatchRequest(f *testing.F) {
	// A well-formed wire log for log-carrying seeds.
	var wire bytes.Buffer
	if err := core.WriteLog(&wire, 16, 8, []core.LogEntry{
		{TP: bitvec.FromUint(0xA5, 8), K: 2},
		{TP: bitvec.FromUint(0x3C, 8), K: 16}, // k = m boundary
	}); err != nil {
		f.Fatal(err)
	}
	logB64 := base64.StdEncoding.EncodeToString(wire.Bytes())

	seeds := []string{
		// Valid: inline TP/k jobs on an explicit spec.
		`{"encoding":{"m":16,"b":8},"jobs":[{"tp":"10100101","k":2},{"tp":"00111100","k":3,"count_only":true}]}`,
		// Valid: wire-log job, spec borrowed from the log header.
		fmt.Sprintf(`{"jobs":[{"log":%q,"cycles":[0,1]}]}`, logB64),
		// Valid: properties and limits.
		`{"encoding":{"m":16,"b":8},"jobs":[{"tp":"10100101","k":2,"properties":"mingap(3)","limit":-1}]}`,
		// Corrupt wire payload inside valid JSON.
		`{"jobs":[{"log":"VFBSMWdhcmJhZ2U="}]}`,
		// Structural rejections.
		`{"encoding":{"m":16,"b":8},"jobs":[]}`,
		`{"jobs":[{"tp":"101","k":1},{"bogus":true}]}`,
		`{"encoding":{"m":16,"b":8},"jobs":[{"tp":"101","k":1}]}garbage`,
		`{"encoding":{"scheme":"nope","m":4,"b":2},"jobs":[{"tp":"10","k":1}]}`,
		`not json at all`,
		// Cycles on an inline job, and more cycles than the log has
		// entries: both rejected per job.
		`{"encoding":{"m":16,"b":8},"jobs":[{"tp":"10100101","k":2,"cycles":[0]}]}`,
		fmt.Sprintf(`{"jobs":[{"log":%q,"cycles":[0,0,1]}]}`, logB64),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxJobs = 64
		req, err := parseBatchRequest(data, maxJobs)
		if err != nil {
			return
		}
		if len(req.Jobs) == 0 || len(req.Jobs) > maxJobs {
			t.Fatalf("parse accepted %d jobs outside (0, %d]", len(req.Jobs), maxJobs)
		}
		spec, plans, errs, err := planBatch(req)
		if err != nil {
			return
		}
		if spec.M <= 0 || spec.B <= 0 {
			t.Fatalf("resolved spec has non-positive geometry: m=%d b=%d", spec.M, spec.B)
		}
		for i, job := range req.Jobs {
			if errs[i] != nil {
				continue
			}
			p := plans[i]
			if job.Log == nil && len(p.items) != 1 {
				t.Fatalf("inline job %d planned %d work items", i, len(p.items))
			}
			if len(job.Cycles) > 0 && len(p.items) != len(job.Cycles) {
				t.Fatalf("job %d planned %d work items for %d cycles", i, len(p.items), len(job.Cycles))
			}
			if p.opts.limit < -1 || p.opts.limit == 0 {
				t.Fatalf("job %d planned limit %d, want -1 or positive", i, p.opts.limit)
			}
			for _, it := range p.items {
				if it.entry.TP.Width() != spec.B {
					t.Fatalf("job %d planned a TP of width %d under b=%d", i, it.entry.TP.Width(), spec.B)
				}
			}
		}
	})
}
