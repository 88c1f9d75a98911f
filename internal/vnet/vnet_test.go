package vnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBindAndConflict(t *testing.T) {
	n := New()
	if err := n.Bind("tcp", 8080, "a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind("tcp", 8080, "b"); !errors.Is(err, ErrPortInUse) {
		t.Errorf("second bind = %v, want ErrPortInUse", err)
	}
	// Different protocol: independent port space.
	if err := n.Bind("udp", 8080, "b"); err != nil {
		t.Errorf("udp bind = %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	n := New()
	if err := n.Bind("tcp", 0, "a"); !errors.Is(err, ErrPortRange) {
		t.Errorf("port 0 = %v", err)
	}
	if err := n.Bind("tcp", 70000, "a"); !errors.Is(err, ErrPortRange) {
		t.Errorf("port 70000 = %v", err)
	}
	if err := n.Bind("tcp", -1, "a"); !errors.Is(err, ErrPortRange) {
		t.Errorf("port -1 = %v", err)
	}
	if err := n.Bind("tcp", 80, "a"); !errors.Is(err, ErrPortReserved) {
		t.Errorf("privileged port = %v", err)
	}
	n.AllowPrivileged = true
	if err := n.Bind("tcp", 80, "a"); err != nil {
		t.Errorf("privileged bind with AllowPrivileged = %v", err)
	}
}

func TestReleaseAndOwner(t *testing.T) {
	n := New()
	_ = n.Bind("tcp", 8080, "srv")
	_ = n.Bind("tcp", 8081, "srv")
	_ = n.Bind("tcp", 8082, "other")
	n.Release("tcp", 8080)
	if n.Occupied("tcp", 8080) {
		t.Error("released port still occupied")
	}
	n.ReleaseOwner("srv")
	if n.Occupied("tcp", 8081) {
		t.Error("owner release missed 8081")
	}
	if !n.Occupied("tcp", 8082) {
		t.Error("owner release must not touch other owners")
	}
}

func TestOccupyForTest(t *testing.T) {
	n := New()
	if err := n.OccupyForTest("udp", 3130); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind("udp", 3130, "proxy"); !errors.Is(err, ErrPortInUse) {
		t.Errorf("bind of occupied = %v", err)
	}
}

func TestValidIP(t *testing.T) {
	valid := []string{"127.0.0.1", "0.0.0.0", "255.255.255.255", "10.1.2.3"}
	invalid := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "999.1.1.1",
		"a.b.c.d", "01.2.3.4", "-1.2.3.4", "1..3.4", "not.an.ip.addr"}
	for _, s := range valid {
		if !ValidIP(s) {
			t.Errorf("ValidIP(%q) = false", s)
		}
	}
	for _, s := range invalid {
		if ValidIP(s) {
			t.Errorf("ValidIP(%q) = true", s)
		}
	}
}

// Property: every dotted quad built from in-range octets validates, unless
// an octet has a leading zero.
func TestPropertyValidIPQuads(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		s := fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
		return ValidIP(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidHost(t *testing.T) {
	valid := []string{"example.com", "www.example.com", "proxy", "a-b.c-d.org", "10.0.0.1"}
	invalid := []string{"", "bad host!", "-leading.com", "trailing-.com",
		"under_score.com", "a..b"}
	for _, s := range valid {
		if !ValidHost(s) {
			t.Errorf("ValidHost(%q) = false", s)
		}
	}
	for _, s := range invalid {
		if ValidHost(s) {
			t.Errorf("ValidHost(%q) = true", s)
		}
	}
}

func TestConcurrentBind(t *testing.T) {
	n := New()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = n.Bind("tcp", 9000, fmt.Sprintf("g%d", k))
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Errorf("%d concurrent binds succeeded, want exactly 1", ok)
	}
}
