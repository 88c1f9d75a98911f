package campaignstore

import (
	"bytes"
	"encoding/json"
	"sync"

	"spex/internal/confgen"
	"spex/internal/constraint"
	"spex/internal/inject"
)

// Canonical holds the encodings a snapshot saved for one workload
// carries: its constraint set's JSON and fingerprint, and, per replay
// key, that misconfiguration's json.Marshal bytes. shard.BuildWorkloads
// makes one per workload, so a daemon's workloads and every job share
// it. The encodings are built on the first decode against it, under a
// sync.Once, so a caller that never loads a snapshot for the workload
// never pays for them; the value is read-only after that.
//
// Store.Prepare decodes against them (codec.go): a header whose last
// member is the canonical constraint set decodes only the members
// before it, and a record whose payload opens with its key's canonical
// misconfiguration decodes only the members after it. Only the bytes
// select that path, and it returns what the plain decoder would: build
// indexes only encodings that decode back to the value they were
// encoded from. Saves never use them: a run whose load matched all of
// them and changed nothing does not save (shard.CampaignAll), so every
// save marshals.
type Canonical struct {
	set  *constraint.Set
	ms   []confgen.Misconf
	keys []string

	// once guards build, which fills the fields below.
	once sync.Once
	// setJSON is json.Marshal(set), or nil when a decode of those bytes
	// would not yield set's constraints.
	setJSON []byte
	setFP   string
	byKey   map[string]canonMisconf
}

// canonMisconf holds the json.Marshal bytes of ms[i].
type canonMisconf struct {
	json []byte
	i    int
}

// NewCanonical records the workload whose canonical encodings c stands
// for: the constraint set and its misconfigurations, keys[i] being
// ms[i]'s replay key (inject.CacheKey). It encodes nothing yet.
func NewCanonical(set *constraint.Set, ms []confgen.Misconf, keys []string) *Canonical {
	return &Canonical{set: set, ms: ms, keys: keys}
}

// build encodes the workload once. A misconfiguration missing from the
// index just takes the plain decode.
func (c *Canonical) build() {
	c.once.Do(func() {
		c.setFP = c.set.Fingerprint()
		// Set.UnmarshalJSON drops constraints whose ID repeats, so only a
		// set without repeats decodes back to its own fingerprint.
		if b, err := json.Marshal(c.set); err == nil && lossless(b) && uniqueIDs(c.set) {
			c.setJSON = b
		}
		c.byKey = make(map[string]canonMisconf, len(c.ms))
		for i, m := range c.ms {
			if b, err := json.Marshal(m); err == nil && lossless(b) {
				c.byKey[c.keys[i]] = canonMisconf{json: b, i: i}
			}
		}
	})
}

// lossless reports whether b, the json.Marshal encoding of a constraint
// set or a misconfiguration, decodes to a value that encodes back to b.
// Their fields are strings, numbers, booleans, slices, string maps and
// pointers, which all round-trip but for one case: a string that is not
// valid UTF-8, whose bad bytes json.Marshal writes as \ufffd. (A string
// spelling \ufffd out also trips this; it just takes the plain decode.)
func lossless(b []byte) bool { return !bytes.Contains(b, []byte(`\ufffd`)) }

// uniqueIDs reports whether no two of the set's constraints share an ID.
func uniqueIDs(set *constraint.Set) bool {
	seen := make(map[string]bool, set.Len())
	for _, c := range set.Constraints {
		id := c.ID()
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// constraintsMember opens the header's last member, the constraint set.
var constraintsMember = []byte(`,"constraints":`)

// decodeHeader decodes a header frame whose last member is the canonical
// constraint set into hdr, reading only the members before it; the
// caller takes the canonical set and fingerprint. It reports false, with
// hdr untouched, for any header it cannot show the plain decoder reads
// the same way.
func (c *Canonical) decodeHeader(head []byte, hdr *snapshotHeader) bool {
	if c == nil {
		return false
	}
	if c.build(); c.setJSON == nil {
		return false
	}
	end := len(head) - 1 - len(c.setJSON) // where the set's bytes start
	if end < 0 || head[len(head)-1] != '}' || !bytes.Equal(head[end:len(head)-1], c.setJSON) ||
		!bytes.HasSuffix(head[:end], constraintsMember) {
		return false
	}
	end -= len(constraintsMember)
	// The plain decoder needs a member before the comma; "{" + "}" alone
	// would be a valid head of an invalid header.
	if before := bytes.TrimRight(head[:end], " \t\r\n"); len(before) == 0 || before[len(before)-1] == '{' {
		return false
	}
	// Decode the members before the set, closed by a brace written over
	// the comma. The plain decoder's set is the canonical one: a later
	// member replaces any earlier "constraints".
	var h snapshotHeader
	head[end] = '}'
	err := json.Unmarshal(head[:end+1], &h)
	head[end] = ','
	if err != nil {
		return false
	}
	*hdr = h
	return true
}

// misconfPrefix opens every outcome payload: Misconf is inject.Outcome's
// first field, and payloads are compact json.Marshal output.
var misconfPrefix = []byte(`{"Misconf":`)

// outcomeTail receives the members after an outcome payload's
// misconfiguration. Its Misconf field shadows the embedded Outcome's, so
// any later key the plain decoder would read into Outcome.Misconf
// (encoding/json matches keys case-insensitively) lands here and sends
// the record to the full decode.
type outcomeTail struct {
	inject.Outcome
	Misconf json.RawMessage
}

// decodeOutcome decodes a record payload that opens with key's canonical
// misconfiguration, reading only the members after it, and takes the
// workload's misconfiguration. It reports false, with out untouched, for
// any payload it cannot show the plain decoder reads the same way.
func (c *Canonical) decodeOutcome(key string, payload []byte, out *inject.Outcome) bool {
	if c == nil || !bytes.HasPrefix(payload, misconfPrefix) {
		return false
	}
	c.build()
	cm, ok := c.byKey[key]
	if !ok {
		return false
	}
	end := len(misconfPrefix) + len(cm.json)
	if len(payload) <= end || payload[end] != ',' {
		return false
	}
	// The plain decoder needs another member after the comma; "{" + "}"
	// alone would be a valid tail of an invalid payload.
	if rest := bytes.TrimLeft(payload[end+1:], " \t\r\n"); len(rest) == 0 || rest[0] != '"' {
		return false
	}
	if !bytes.Equal(payload[len(misconfPrefix):end], cm.json) {
		return false
	}
	// Decode "{" + the remaining members by putting the brace where the
	// comma was; json.Unmarshal keeps no reference to its input.
	var t outcomeTail
	payload[end] = '{'
	err := json.Unmarshal(payload[end:], &t)
	payload[end] = ','
	if err != nil || t.Misconf != nil {
		return false
	}
	*out = t.Outcome
	out.Misconf = c.ms[cm.i]
	return true
}
