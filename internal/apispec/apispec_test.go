package apispec

import (
	"testing"

	"spex/internal/constraint"
)

func TestLookupFullName(t *testing.T) {
	db := New()
	spec, ok := db.Lookup("strconv.Atoi")
	if !ok || spec.RetBasic != constraint.BasicInt64 {
		t.Errorf("strconv.Atoi = %+v, %v", spec, ok)
	}
}

func TestLookupMethodSuffix(t *testing.T) {
	db := New()
	// env.FS.ReadFile resolves through its last two components.
	spec, ok := db.Lookup("env.FS.ReadFile")
	if !ok {
		t.Fatal("suffix lookup failed")
	}
	if arg, ok := spec.ArgAt(0); !ok || arg.Semantic != constraint.SemFile {
		t.Errorf("arg0 = %+v", arg)
	}
}

func TestLookupBareHelper(t *testing.T) {
	db := New()
	spec, ok := db.Lookup("atoi")
	if !ok || !spec.Unsafe {
		t.Errorf("atoi = %+v, %v", spec, ok)
	}
	if _, ok := db.Lookup("definitely_not_an_api"); ok {
		t.Error("unknown name resolved")
	}
}

func TestRegisterOverride(t *testing.T) {
	db := &DB{funcs: map[string]*FuncSpec{}}
	db.Register(&FuncSpec{Name: "validateInitiator",
		Args: []ArgSpec{{Index: 0, Semantic: constraint.SemInitiator}}})
	spec, ok := db.Lookup("validateInitiator")
	if !ok {
		t.Fatal("registered spec not found")
	}
	if arg, _ := spec.ArgAt(0); arg.Semantic != constraint.SemInitiator {
		t.Errorf("arg = %+v", arg)
	}
}

func TestArgAtMiss(t *testing.T) {
	spec := &FuncSpec{Name: "f", Args: []ArgSpec{{Index: 1, Semantic: constraint.SemPort}}}
	if _, ok := spec.ArgAt(0); ok {
		t.Error("ArgAt(0) should miss")
	}
	if a, ok := spec.ArgAt(1); !ok || a.Semantic != constraint.SemPort {
		t.Error("ArgAt(1) should hit")
	}
}

func TestSizeUnit(t *testing.T) {
	cases := map[int64]constraint.Unit{
		1:                  constraint.UnitByte,
		1024:               constraint.UnitKB,
		1024 * 1024:        constraint.UnitMB,
		1024 * 1024 * 1024: constraint.UnitGB,
	}
	for mult, want := range cases {
		got, ok := SizeUnit(mult)
		if !ok || got != want {
			t.Errorf("SizeUnit(%d) = %s,%v", mult, got, ok)
		}
	}
	if _, ok := SizeUnit(1000); ok {
		t.Error("non-binary multiplier should not map")
	}
}

func TestTimeUnitScaled(t *testing.T) {
	if u, ok := TimeUnitScaled(constraint.UnitMillisecond, 1000); !ok || u != constraint.UnitSecond {
		t.Errorf("ms*1000 = %s,%v", u, ok)
	}
	if u, ok := TimeUnitScaled(constraint.UnitSecond, 60); !ok || u != constraint.UnitMinute {
		t.Errorf("s*60 = %s,%v", u, ok)
	}
	if u, ok := TimeUnitScaled(constraint.UnitSecond, 3600); !ok || u != constraint.UnitHour {
		t.Errorf("s*3600 = %s,%v", u, ok)
	}
	if _, ok := TimeUnitScaled(constraint.UnitSecond, 7); ok {
		t.Error("s*7 has no unit")
	}
	if _, ok := TimeUnitScaled(constraint.UnitByte, 60); ok {
		t.Error("byte base is not a time unit")
	}
}

func TestBuiltinsCoverSubstrates(t *testing.T) {
	db := New()
	for _, name := range []string{
		"FS.ReadFile", "FS.IsDir", "Net.Bind", "vnet.ValidIP",
		"time.Sleep", "sleepSeconds", "sleepMillis", "sleepMicros",
		"allocBuffer", "lookupUser", "strings.EqualFold",
		"strconv.ParseInt", "fmt.Sscanf",
	} {
		if _, ok := db.Lookup(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
	}
}
