package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bear/internal/exp"
	"bear/internal/serve/worker"
)

// FuzzUnitSpec feeds arbitrary bytes to the two places bearserve decodes a
// unit from outside the process: a POST /sweep body, through the real
// handler, and a worker's request line (worker.WorkRequest). Nothing may
// panic; /sweep answers 202 or 400 and nothing else; Validate and Key
// agree on every decoded unit; a unit Key accepts re-marshals and
// re-decodes to the same key; and resubmitting an accepted batch accepts
// nothing new. The server has no workers, so nothing is simulated. Seeds
// cover every design with a rate, single-program and mix workload, bad mix
// numbers and the L4 override fields that bearserve refuses.
func FuzzUnitSpec(f *testing.F) {
	var units []exp.UnitSpec
	for _, d := range exp.UnitDesignNames() {
		for _, wl := range []string{"mcf", "soplex@single", "MIX1", "mix03"} {
			units = append(units, exp.UnitSpec{Design: d, Workload: wl})
		}
	}
	units = append(units,
		exp.UnitSpec{Design: "bear", Workload: "MIX0"},
		exp.UnitSpec{Design: "Alloy", Workload: "MIXx"},
		exp.UnitSpec{Design: "LH", Workload: " "},
		exp.UnitSpec{Design: "BEAR", Workload: "mcf", L4Channels: 2},
		exp.UnitSpec{Design: "BEAR", Workload: "mcf", L4Banks: -4},
		exp.UnitSpec{Design: "Alloy", Workload: "soplex", CapacityMB: 1 << 62},
	)
	for _, u := range units {
		body, err := json.Marshal(map[string]any{"units": []exp.UnitSpec{u}})
		if err != nil {
			f.Fatal(err)
		}
		req, err := json.Marshal(worker.WorkRequest{Unit: u, Attempt: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(req)
	}
	f.Add([]byte(`{"units":[]}`))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		s := New(Config{Fingerprint: testFP, Params: exp.Quick()})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(raw)))
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusBadRequest {
			t.Fatalf("/sweep answered %d: %s", rec.Code, rec.Body)
		}

		var body struct {
			Units []exp.UnitSpec `json:"units"`
		}
		var req worker.WorkRequest
		var decoded []exp.UnitSpec
		if json.Unmarshal(raw, &body) == nil {
			decoded = append(decoded, body.Units...)
		}
		if json.Unmarshal(raw, &req) == nil {
			decoded = append(decoded, req.Unit)
		}
		for _, u := range decoded {
			key, err := u.Key()
			if verr := u.Validate(); (verr == nil) != (err == nil) {
				t.Fatalf("%+v: Validate says %v, Key says %v", u, verr, err)
			}
			if err != nil {
				continue
			}
			re, err := json.Marshal(u)
			if err != nil {
				t.Fatal(err)
			}
			var back exp.UnitSpec
			if err := json.Unmarshal(re, &back); err != nil {
				t.Fatalf("%+v re-marshals to undecodable %s: %v", u, re, err)
			}
			if got, err := back.Key(); err != nil || got != key {
				t.Fatalf("%+v keys %q, its round trip %s keys %q (err %v)", u, key, re, got, err)
			}
		}

		fresh := New(Config{Fingerprint: testFP, Params: exp.Quick()})
		if n, err := fresh.Submit(decoded); err == nil && n > 0 {
			if again, err := fresh.Submit(decoded); err != nil || again != 0 {
				t.Fatalf("resubmitting an accepted batch = (%d, %v), want (0, nil)", again, err)
			}
		}
	})
}
