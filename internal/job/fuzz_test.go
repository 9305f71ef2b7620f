package job_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"lacret/internal/job"
)

// decodeStrict decodes a request body the way the daemon's submit handler
// does: one JSON value, unknown fields rejected.
func decodeStrict(data []byte) (job.PlanRequest, error) {
	var req job.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzRequestDigest drives arbitrary request bodies through the submit
// path's front half — strict decode, Normalize, Validate — and checks that
// it never panics, that Normalize is idempotent, and that an accepted
// request digests the same after a JSON round trip (so a request journaled
// or forwarded as JSON keeps its cache key).
func FuzzRequestDigest(f *testing.F) {
	for _, seed := range []string{
		`{"source":{"circuit":"s386"},"config":{"seed":7}}`,
		`{"source":{"circuit":"s386"},"config":{"whitespace":0.13,"tclk_slack":0.2,"nmax":5,"iterations":1,"seed":1}}`,
		`{"source":{"circuit":"s386"}}`,
		`{"source":{"circuit":"s386"},"config":{"alpha":0}}`,
		`{"source":{"circuit":"s386"},"config":{"alpha":1.5}}`,
		`{"source":{"circuit":"s386"},"config":{"budget_ms":-1}}`,
		`{"source":{"circuit":"s386"},"config":{"whitespace":1.5}}`,
		`{"source":{"circuit":"s386"},"config":{"probe_engine":"dense"}}`,
		`{"source":{"circuit":"s386","bench":"INPUT(a)\n"}}`,
		`{"source":{"circuit":"nosuch"}}`,
		`{"source":{"bench":"INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n"}}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeStrict(data)
		if err != nil {
			return
		}
		req.Normalize()
		once := req
		if req.Config.Alpha != nil {
			a := *req.Config.Alpha
			once.Config.Alpha = &a
		}
		req.Normalize()
		if !reflect.DeepEqual(once, req) {
			t.Fatalf("Normalize not idempotent:\nonce  %+v\ntwice %+v", once, req)
		}
		if req.Validate() != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		back, err := decodeStrict(enc)
		if err != nil {
			t.Fatalf("accepted request's own JSON %s rejected: %v", enc, err)
		}
		if got, want := back.Digest(), req.Digest(); got != want {
			t.Fatalf("digest changed over a JSON round trip of %s: %s != %s", enc, got, want)
		}
	})
}
