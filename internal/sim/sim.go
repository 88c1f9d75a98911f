// Package sim defines the contract between the injection harness and the
// simulated target systems, and the monitor that observes how a target
// reacts to a (mis)configuration.
//
// The paper's SPEX-INJ boots real servers and watches for crashes, hangs and
// test failures. Here every target is a hermetic Go implementation running
// on virtual substrates (vfs, vnet, simlog); the monitor translates Go-level
// events into the paper's observables:
//
//	panic during startup      -> crash
//	sim.Hang during startup   -> hang
//	*ExitError from Start     -> termination with an exit status
//	nil Instance error        -> server running; functional tests may run
//
// A boot still running after BootGuard is a harness failure, not an
// observable, so no verdict is read off the clock.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spex/internal/conffile"
	"spex/internal/constraint"
	"spex/internal/simlog"
	"spex/internal/vfs"
	"spex/internal/vnet"
)

// Env bundles the virtual substrates a target instance runs on.
type Env struct {
	FS  *vfs.FS
	Net *vnet.Net
	Log *simlog.Log
}

// NewEnv returns a fresh environment with empty substrates.
func NewEnv() *Env {
	return &Env{FS: vfs.New(), Net: vnet.New(), Log: simlog.New()}
}

// ExitError is returned by System.Start to model controlled process
// termination (exit(status)) during startup.
type ExitError struct {
	Status int
	Reason string
}

func (e *ExitError) Error() string {
	return fmt.Sprintf("exit status %d: %s", e.Status, e.Reason)
}

// AsExit extracts an *ExitError from err, if any.
func AsExit(err error) (*ExitError, bool) {
	var ee *ExitError
	if errors.As(err, &ee) {
		return ee, true
	}
	return nil, false
}

// Instance is a started target system.
type Instance interface {
	// Effective returns the value the system is actually using for the
	// parameter after parsing/normalization. The harness compares it with
	// the configured value to detect silent violation.
	Effective(param string) (string, bool)
	// Stop shuts the instance down and releases substrate resources.
	Stop()
}

// FuncTest is one functional test from a target's own test infrastructure
// (paper §3.1: "SPEX-INJ leverages each software's own test infrastructure").
type FuncTest struct {
	Name string
	// Weight is the test's relative running time; the harness sorts by it
	// to run the shortest test first (the paper's second optimization).
	Weight int
	// Run exercises the instance and returns an error on functional
	// failure. The concrete Instance type is target-specific.
	Run func(env *Env, inst Instance) error
}

// ManualEntry is one parameter's user-manual entry. Undocumented-constraint
// detection (Table 8) compares inferred constraints against Documented.
type ManualEntry struct {
	Prose      string
	Documented []constraint.Kind
}

// DocumentsKind reports whether the entry documents constraints of kind k.
func (m ManualEntry) DocumentsKind(k constraint.Kind) bool {
	for _, d := range m.Documented {
		if d == k {
			return true
		}
	}
	return false
}

// System is a simulated target: the same source corpus is analyzed by SPEX
// and executed by the harness.
type System interface {
	// Name is the system's short name ("Storage-A", "httpd", ...).
	Name() string
	// Description is a one-line description for reports.
	Description() string
	// Syntax is the configuration-file syntax.
	Syntax() conffile.Syntax
	// DefaultConfig is the template configuration file (all defaults).
	DefaultConfig() string
	// Sources returns the configuration-handling source corpus, keyed by
	// file name. This is the code SPEX analyzes; it mirrors the code the
	// target actually executes.
	Sources() map[string]string
	// Annotations is the SPEX annotation text that seeds
	// parameter-to-variable mapping (paper §2.2.1, Figure 4).
	Annotations() string
	// Manual returns the user manual, keyed by parameter name.
	Manual() map[string]ManualEntry
	// GroundTruth returns the manually verified constraint set used to
	// score inference accuracy (Table 12).
	GroundTruth() *constraint.Set
	// SetupEnv populates the virtual substrates with the files and state
	// the default configuration expects (doc roots, stopword files, ...).
	SetupEnv(env *Env)
	// Start parses the configuration and boots the system. It may panic
	// (crash), call Hang (hang), return *ExitError (termination) or
	// return a running Instance.
	Start(env *Env, cfg *conffile.File) (Instance, error)
	// Tests returns the system's functional test suite.
	Tests() []FuncTest
}

// StartKind classifies the outcome of a monitored Start call.
type StartKind int

const (
	// StartOK: the instance is running.
	StartOK StartKind = iota
	// StartCrash: Start panicked.
	StartCrash
	// StartExit: Start returned *ExitError.
	StartExit
	// StartHang: Start called Hang.
	StartHang
	// StartError: Start returned an unexpected non-exit error.
	StartError
	// StartCancelled: the campaign context was cancelled while the boot
	// was in flight; the outcome carries the context error.
	StartCancelled
	// StartTimeout: Start neither returned nor called Hang within
	// BootGuard; the outcome carries an error, not a reaction.
	StartTimeout
)

// BootGuard bounds the monitor's wait for a boot. It guards the harness
// against a target that blocks without calling Hang; it decides no
// verdict.
const BootGuard = 250 * time.Millisecond

func (k StartKind) String() string {
	switch k {
	case StartOK:
		return "ok"
	case StartCrash:
		return "crash"
	case StartExit:
		return "exit"
	case StartHang:
		return "hang"
	case StartError:
		return "error"
	case StartCancelled:
		return "cancelled"
	case StartTimeout:
		return "timeout"
	}
	return fmt.Sprintf("StartKind(%d)", int(k))
}

// StartOutcome is the observed result of booting a target.
type StartOutcome struct {
	Kind     StartKind
	Instance Instance
	Exit     *ExitError
	PanicVal any
	Err      error
}

// MonitorStartContext boots the system under observation, recovering
// panics and Hang's signal. A cancelled context, or a boot still running
// after BootGuard, abandons the in-flight boot and reports StartCancelled
// or StartTimeout with an error, so a parallel campaign can be stopped
// mid-misconfiguration and a boot that never returns stalls no worker.
func MonitorStartContext(ctx context.Context, sys System, env *Env, cfg *conffile.File) StartOutcome {
	out := monitorStart(ctx, sys, env, cfg)
	mBoots.With(out.Kind.String()).Inc()
	return out
}

func monitorStart(ctx context.Context, sys System, env *Env, cfg *conffile.File) StartOutcome {
	type result struct {
		inst     Instance
		err      error
		panicked bool
		panicVal any
	}
	ch := make(chan result, 1)
	go func() {
		var res result
		defer func() {
			if r := recover(); r != nil {
				res.panicked = true
				res.panicVal = r
			}
			ch <- res
		}()
		res.inst, res.err = sys.Start(env, cfg)
	}()
	timer := time.NewTimer(BootGuard)
	defer timer.Stop()
	select {
	case res := <-ch:
		switch {
		case res.panicVal == (hangSignal{}):
			return StartOutcome{Kind: StartHang}
		case res.panicked:
			env.Log.Fatalf("Segmentation fault (core dumped): %v", res.panicVal)
			return StartOutcome{Kind: StartCrash, PanicVal: res.panicVal}
		case res.err != nil:
			if ee, ok := AsExit(res.err); ok {
				return StartOutcome{Kind: StartExit, Exit: ee, Err: res.err}
			}
			return StartOutcome{Kind: StartError, Err: res.err}
		default:
			return StartOutcome{Kind: StartOK, Instance: res.inst}
		}
	case <-timer.C:
		return StartOutcome{Kind: StartTimeout, Err: fmt.Errorf("sim: %s boot outlived %v without sim.Hang", sys.Name(), BootGuard)}
	case <-ctx.Done():
		return StartOutcome{Kind: StartCancelled, Err: ctx.Err()}
	}
}

// RunTest executes one functional test with panic recovery, returning the
// failure (or panic converted to an error) if any.
func RunTest(t FuncTest, env *Env, inst Instance) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("test %s panicked: %v", t.Name, r)
		}
	}()
	return t.Run(env, inst)
}

// hangSignal is Hang's panic value; the monitor reports it as StartHang.
type hangSignal struct{}

// Hang models a hung startup (e.g. a retry loop that never terminates).
// It unwinds Start at once, running Start's deferred calls (a boot
// lock's unlock among them), and the monitor reports StartHang without
// waiting. It must be called on Start's goroutine.
func Hang() {
	panic(hangSignal{})
}
