// Package vnet provides a virtual network substrate: a port registry with
// bind/occupy semantics and simple address validation. SPEX-INJ's PORT-type
// injections (e.g. "udp_port = an_occupied_port", Figure 5c) are exercised
// against this registry instead of a real network stack.
package vnet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Errors returned by Bind.
var (
	ErrPortInUse    = errors.New("vnet: address already in use")
	ErrPortRange    = errors.New("vnet: port out of range")
	ErrPortReserved = errors.New("vnet: permission denied (privileged port)")
)

// Net is a virtual network with a per-protocol port space. It is safe for
// concurrent use.
type Net struct {
	mu    sync.Mutex
	bound map[string]string // "proto/port" -> owner
	// AllowPrivileged grants binding of ports < 1024 (the simulated
	// process runs unprivileged by default, matching the evaluated
	// server setups).
	AllowPrivileged bool
}

// New returns an empty virtual network.
func New() *Net {
	return &Net{bound: make(map[string]string)}
}

func key(proto string, port int) string { return proto + "/" + strconv.Itoa(port) }

// Bind reserves proto/port for owner. It fails if the port is occupied,
// out of the valid range, or privileged.
func (n *Net) Bind(proto string, port int, owner string) error {
	if port <= 0 || port > 65535 {
		return fmt.Errorf("bind %s port %d: %w", proto, port, ErrPortRange)
	}
	if port < 1024 && !n.AllowPrivileged {
		return fmt.Errorf("bind %s port %d: %w", proto, port, ErrPortReserved)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	k := key(proto, port)
	if holder, ok := n.bound[k]; ok {
		return fmt.Errorf("bind %s port %d (held by %s): %w", proto, port, holder, ErrPortInUse)
	}
	n.bound[k] = owner
	return nil
}

// Release frees proto/port.
func (n *Net) Release(proto string, port int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.bound, key(proto, port))
}

// ReleaseOwner frees every port held by owner (used when an instance shuts
// down or crashes).
func (n *Net) ReleaseOwner(owner string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, o := range n.bound {
		if o == owner {
			delete(n.bound, k)
		}
	}
}

// Occupied reports whether proto/port is bound.
func (n *Net) Occupied(proto string, port int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.bound[key(proto, port)]
	return ok
}

// OccupyForTest binds a port on behalf of the injection harness so that a
// subsequent target Bind fails with ErrPortInUse.
func (n *Net) OccupyForTest(proto string, port int) error {
	return n.Bind(proto, port, "spex-inj")
}

// ValidIP reports whether s is a syntactically valid IPv4 dotted quad.
// Targets use it to validate IPADDR parameters without the real net
// package's resolver behaviour.
func ValidIP(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return false
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return false
		}
		if len(p) > 1 && p[0] == '0' {
			return false // no leading zeros
		}
	}
	return true
}

// ValidHost reports whether s looks like a resolvable host name or IP.
func ValidHost(s string) bool {
	if s == "" || len(s) > 253 {
		return false
	}
	if ValidIP(s) {
		return true
	}
	for _, label := range strings.Split(s, ".") {
		if label == "" || len(label) > 63 {
			return false
		}
		for i, r := range label {
			alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
			if !alnum && !(r == '-' && i > 0 && i < len(label)-1) {
				return false
			}
		}
	}
	return true
}
