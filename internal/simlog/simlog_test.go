package simlog

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLevelsAndEntries(t *testing.T) {
	l := New()
	l.Debugf("d %d", 1)
	l.Infof("i")
	l.Warnf("w")
	l.Errorf("e")
	l.Fatalf("f")
	es := l.Entries()
	if len(es) != 5 {
		t.Fatalf("entries = %d, want 5", len(es))
	}
	wantLevels := []Level{LevelDebug, LevelInfo, LevelWarn, LevelError, LevelFatal}
	for i, e := range es {
		if e.Level != wantLevels[i] {
			t.Errorf("entry %d level = %s", i, e.Level)
		}
	}
	if es[0].Message != "d 1" {
		t.Errorf("formatted message = %q", es[0].Message)
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestPinpointsByName(t *testing.T) {
	l := New()
	l.Errorf("option 'listener-threads' expects an integer")
	if !l.Pinpoints("listener-threads", "", 0) {
		t.Error("name mention not detected")
	}
	if l.Pinpoints("other_param", "", 0) {
		t.Error("false pinpoint")
	}
}

func TestPinpointsByValue(t *testing.T) {
	l := New()
	l.Errorf("invalid value '999.1.1.1'")
	if !l.Pinpoints("bind_address", "999.1.1.1", 0) {
		t.Error("value mention not detected")
	}
	// Very short values must not match accidentally.
	l2 := New()
	l2.Errorf("startup took 1 second")
	if l2.Pinpoints("flag", "1", 0) {
		t.Error("short value matched accidentally")
	}
}

func TestPinpointsByLine(t *testing.T) {
	l := New()
	l.Errorf("parse error at line 17 of the configuration file")
	if !l.Pinpoints("whatever", "", 17) {
		t.Error("line mention not detected")
	}
	if l.Pinpoints("whatever", "", 18) {
		t.Error("wrong line matched")
	}
}

func TestPinpointsCaseInsensitive(t *testing.T) {
	l := New()
	l.Errorf("Bad value for MaxMemFree")
	if !l.Pinpoints("maxmemfree", "", 0) {
		t.Error("case-insensitive name match failed")
	}
}

func TestContainsAndDump(t *testing.T) {
	l := New()
	l.Fatalf("Cannot open ICP Port")
	if !l.Contains("icp port") {
		t.Error("Contains failed")
	}
	if !strings.Contains(l.Dump(), "FATAL: Cannot open ICP Port") {
		t.Errorf("Dump = %q", l.Dump())
	}
}

func TestConcurrentLogging(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				l.Infof("goroutine %d entry %d", n, j)
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 160 {
		t.Errorf("entries = %d, want 160", l.Len())
	}
}

func TestLevelString(t *testing.T) {
	if LevelFatal.String() != "FATAL" || LevelDebug.String() != "DEBUG" {
		t.Error("level names wrong")
	}
	if !strings.HasPrefix(Level(99).String(), "LEVEL(") {
		t.Error("unknown level formatting")
	}
	e := Entry{Level: LevelWarn, Message: "m"}
	if e.String() != "WARN: m" {
		t.Errorf("entry = %q", e.String())
	}
	_ = fmt.Sprintf("%v", e)
}
