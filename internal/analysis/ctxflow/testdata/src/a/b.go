// Negative cases: no context in scope, threaded variants, and a
// waived deliberate root.
package a

import (
	"context"
	"os/exec"
	"time"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/sim"
)

// No context in scope: the context-free call is all there is.
func sleepsWithoutCtx() {
	time.Sleep(time.Millisecond)
}

// The context-aware twins are the fix.
func threaded(ctx context.Context, sys sim.System, ms []confgen.Misconf) (*inject.Report, error) {
	_ = exec.CommandContext(ctx, "true")
	return inject.RunContext(ctx, sys, ms, inject.DefaultOptions())
}

func monitorsThreaded(ctx context.Context, sys sim.System, env *sim.Env, cfg *conffile.File) sim.StartOutcome {
	return sim.MonitorStartContext(ctx, sys, env, cfg)
}

// A deliberate root carries the waiver with its reason.
func waivedRoot() context.Context {
	//spexlint:ignore ctxflow fixture demonstrates a documented root
	return context.Background()
}
