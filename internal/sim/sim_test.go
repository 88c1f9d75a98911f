package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"spex/internal/conffile"
	"spex/internal/constraint"
)

// stubSystem lets tests drive each MonitorStartContext outcome.
type stubSystem struct {
	start func(env *Env, cfg *conffile.File) (Instance, error)
}

func (s *stubSystem) Name() string                   { return "stub" }
func (s *stubSystem) Description() string            { return "test stub" }
func (s *stubSystem) Syntax() conffile.Syntax        { return conffile.SyntaxEquals }
func (s *stubSystem) DefaultConfig() string          { return "a = 1\n" }
func (s *stubSystem) Sources() map[string]string     { return nil }
func (s *stubSystem) Annotations() string            { return "" }
func (s *stubSystem) Manual() map[string]ManualEntry { return nil }
func (s *stubSystem) GroundTruth() *constraint.Set   { return constraint.NewSet("stub") }
func (s *stubSystem) SetupEnv(env *Env)              {}
func (s *stubSystem) Tests() []FuncTest              { return nil }
func (s *stubSystem) Start(env *Env, cfg *conffile.File) (Instance, error) {
	return s.start(env, cfg)
}

type stubInstance struct{ stopped bool }

func (i *stubInstance) Effective(string) (string, bool) { return "", false }
func (i *stubInstance) Stop()                           { i.stopped = true }

func monitor(t *testing.T, start func(env *Env, cfg *conffile.File) (Instance, error)) StartOutcome {
	t.Helper()
	env := NewEnv()
	cfg, err := conffile.Parse("a = 1\n", conffile.SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	return MonitorStartContext(context.Background(), &stubSystem{start: start}, env, cfg)
}

func TestMonitorStartOK(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		return &stubInstance{}, nil
	})
	if out.Kind != StartOK || out.Instance == nil {
		t.Fatalf("outcome = %s", out.Kind)
	}
}

func TestMonitorStartCrash(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		panic("segfault")
	})
	if out.Kind != StartCrash {
		t.Fatalf("outcome = %s, want crash", out.Kind)
	}
	if out.PanicVal != "segfault" {
		t.Errorf("panic value = %v", out.PanicVal)
	}
}

func TestMonitorStartExit(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		return nil, &ExitError{Status: 2, Reason: "bad option"}
	})
	if out.Kind != StartExit {
		t.Fatalf("outcome = %s, want exit", out.Kind)
	}
	if out.Exit.Status != 2 {
		t.Errorf("status = %d", out.Exit.Status)
	}
}

func TestMonitorStartWrappedExit(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		return nil, fmt.Errorf("during boot: %w", &ExitError{Status: 1, Reason: "r"})
	})
	if out.Kind != StartExit {
		t.Fatalf("outcome = %s, want exit via errors.As", out.Kind)
	}
}

func TestMonitorStartError(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		return nil, errors.New("plain failure")
	})
	if out.Kind != StartError {
		t.Fatalf("outcome = %s, want error", out.Kind)
	}
}

func TestMonitorStartHang(t *testing.T) {
	out := monitor(t, func(env *Env, cfg *conffile.File) (Instance, error) {
		Hang()
		return nil, nil
	})
	if out.Kind != StartHang {
		t.Fatalf("outcome = %s, want hang", out.Kind)
	}
}

func TestRunTestRecoversPanics(t *testing.T) {
	ft := FuncTest{Name: "boom", Run: func(env *Env, inst Instance) error { panic("x") }}
	err := RunTest(ft, NewEnv(), &stubInstance{})
	if err == nil {
		t.Fatal("panicking test must yield an error")
	}
}

func TestManualEntryDocumentsKind(t *testing.T) {
	me := ManualEntry{Documented: []constraint.Kind{constraint.KindRange}}
	if !me.DocumentsKind(constraint.KindRange) {
		t.Error("range should be documented")
	}
	if me.DocumentsKind(constraint.KindControlDep) {
		t.Error("dep should not be documented")
	}
}

func TestExitErrorMessage(t *testing.T) {
	e := &ExitError{Status: 1, Reason: "bad"}
	if e.Error() != "exit status 1: bad" {
		t.Errorf("message = %q", e.Error())
	}
	if _, ok := AsExit(errors.New("x")); ok {
		t.Error("AsExit on a plain error")
	}
}

func TestStartKindStrings(t *testing.T) {
	names := map[StartKind]string{
		StartOK: "ok", StartCrash: "crash", StartExit: "exit",
		StartHang: "hang", StartError: "error", StartCancelled: "cancelled",
		StartTimeout: "timeout",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestMonitorStartContextCancelled(t *testing.T) {
	env := NewEnv()
	cfg, err := conffile.Parse("a = 1\n", conffile.SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	release := make(chan struct{})
	defer close(release)
	out := MonitorStartContext(ctx, &stubSystem{start: func(env *Env, cfg *conffile.File) (Instance, error) {
		<-release
		return &stubInstance{}, nil
	}}, env, cfg)
	if out.Kind != StartCancelled {
		t.Fatalf("outcome = %s, want cancelled", out.Kind)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.Err)
	}
}

func TestMonitorStartContextUncancelledBehavesAsMonitorStart(t *testing.T) {
	env := NewEnv()
	cfg, err := conffile.Parse("a = 1\n", conffile.SyntaxEquals)
	if err != nil {
		t.Fatal(err)
	}
	out := MonitorStartContext(context.Background(), &stubSystem{start: func(env *Env, cfg *conffile.File) (Instance, error) {
		return &stubInstance{}, nil
	}}, env, cfg)
	if out.Kind != StartOK {
		t.Fatalf("outcome = %s, want ok", out.Kind)
	}
}
