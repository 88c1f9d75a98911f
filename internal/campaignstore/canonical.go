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
// misconfiguration takes the workload's key string and misconfiguration
// and decodes only the members after it, with decodeTail's strict parse
// (tail.go). A record whose tail that parse refuses takes the full
// decode, which Status.FullDecodes counts, so the run saves the file
// again with the bytes json.Marshal writes. Only the bytes select the
// fast path, and it returns what the plain decoder would: build indexes
// only encodings that decode back to the value they were encoded from.
// The frames it reads alias the loaded file's private buffer, which
// decodeHeader patches and restores. Saves never use them: a run whose
// load matched all of them and changed nothing does not save
// (shard.CampaignAll), so every save marshals.
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
	// byKey maps the replay key of every misconfiguration whose encoding
	// decodes back to it to its index i, and msJSON[i] is that encoding,
	// json.Marshal(ms[i]).
	byKey  map[string]int
	msJSON [][]byte
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
		c.byKey = make(map[string]int, len(c.ms))
		c.msJSON = make([][]byte, len(c.ms))
		for i, m := range c.ms {
			if b, err := json.Marshal(m); err == nil && lossless(b) {
				c.byKey[c.keys[i]], c.msJSON[i] = i, b
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

// key returns the record key kb names and, for a key c holds, the index
// of its misconfiguration, else -1. A held key's string is c's own, so
// matching it allocates nothing.
func (c *Canonical) key(kb []byte) (string, int) {
	if c != nil {
		c.build()
		if i, ok := c.byKey[string(kb)]; ok {
			return c.keys[i], i
		}
	}
	return string(kb), -1
}

// misconfPrefix opens every outcome payload: Misconf is inject.Outcome's
// first field, and payloads are compact json.Marshal output.
var misconfPrefix = []byte(`{"Misconf":`)

// decodeOutcome decodes a record payload that opens with ms[i]'s
// canonical encoding (i from key; -1 matches nothing), reading only the
// members after it with decodeTail, and takes the workload's
// misconfiguration. It reports false, with out untouched, for any
// payload it cannot show the plain decoder reads the same way, a tail
// decodeTail refuses included.
func (c *Canonical) decodeOutcome(i int, payload []byte, out *inject.Outcome) bool {
	if i < 0 || !bytes.HasPrefix(payload, misconfPrefix) {
		return false
	}
	m := &c.ms[i]
	end := len(misconfPrefix) + len(c.msJSON[i])
	if len(payload) <= end || payload[end] != ',' || !bytes.Equal(payload[len(misconfPrefix):end], c.msJSON[i]) {
		return false
	}
	var loc constraint.SourceLoc
	if m.Violates != nil {
		loc = m.Violates.Loc
	}
	if !decodeTail(payload[end+1:], loc, out) {
		return false
	}
	out.Misconf = *m
	return true
}
