// Harden walks the paper's Figure 2 end to end: the OpenLDAP-like server
// crashes with "segmentation fault" when listener-threads exceeds a
// hard-coded maximum of 16 that no code validates and no manual documents.
// The example shows (1) the user's experience, (2) what SPEX-INJ reports to
// the developer, and (3) the reaction after the recommended fix — an
// explicit check with a pinpointing message.
package main

import (
	"context"
	"fmt"
	"log"

	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/sim"
	"spex/internal/simlog"
	"spex/internal/targets/ldapd"
)

func main() {
	sys := ldapd.New()

	fmt.Println("== 1. the user sets listener-threads = 32 ==")
	m := confgen.Misconf{ID: "figure2", Param: "listener-threads", Values: map[string]string{"listener-threads": "32"}}
	out, err := inject.NewRunner(sys, inject.DefaultOptions()).Test(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reaction: %s\n", out.Reaction)
	if out.Reaction == inject.ReactionCrash {
		fmt.Printf("console : Segmentation fault (core dumped)\n")
		fmt.Println("-> the user has no idea the root cause is a configuration value;")
		fmt.Println("   the paper reports two users filed this as a software bug.")
	}

	fmt.Println("\n== 2. what a hardened server should do ==")
	fmt.Println("add a check before spawning listeners:")
	fmt.Print(`    if c.listenerThreads > 16 {
        log.Errorf("listener-threads N exceeds the supported maximum 16")
        exit(1)
    }
`)

	fmt.Println("\n== 3. the hardened reaction ==")
	env2 := sim.NewEnv()
	sys.SetupEnv(env2)
	out2 := startHardened(env2, 32)
	fmt.Printf("reaction: %s\n", out2)
	fmt.Printf("console :\n%s", indent(env2.Log))
	fmt.Println("-> the user fixes the value without calling support.")
}

// startHardened simulates the patched startup path.
func startHardened(env *sim.Env, listenerThreads int64) string {
	if listenerThreads < 1 || listenerThreads > 16 {
		env.Log.Errorf("listener-threads %d is out of the supported range [1, 16]", listenerThreads)
		return "clean exit with a pinpointing message (good reaction)"
	}
	return "started"
}

func indent(l *simlog.Log) string {
	out := ""
	for _, e := range l.Entries() {
		out += "  " + e.String() + "\n"
	}
	return out
}
