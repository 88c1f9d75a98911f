package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec: a POST /v1/jobs body is untrusted network input. Decoding
// it like handleJobsCreate and validating it must not panic, and a spec
// that validates must survive a re-encode: it decodes and validates
// again, and encodes to the same bytes.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"all": true, "workers": 2}`))
	f.Add([]byte(`{"systems": ["ldapd", "proxyd"], "workers": 1, "stages": ["infer", "inject", "eval"]}`))
	f.Add([]byte(`{"systems": ["ldapd"], "coordinate": 2, "steal_min": 0, "sim_delay": "2ms"}`))
	f.Add([]byte(`{"systems": ["ldapd"], "coordinate": 3000}`))
	f.Add([]byte(`{"systems": ["ldapd"], "needs": ["job-000001"], "stages": ["eval", "infer"]}`))
	f.Add([]byte(`{"all": true, "bogus_field": 1}`))
	f.Add([]byte(`{"systems": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil || validateSpec(spec) != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding an accepted spec: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding a re-encoded spec %s: %v", enc, err)
		}
		if err := validateSpec(again); err != nil {
			t.Fatalf("re-encoded spec %s no longer validates: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("spec encoding is not stable: %s then %s (%v)", enc, enc2, err)
		}
	})
}
