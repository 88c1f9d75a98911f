// Negative cases: bus-mediated publishing, stopped or handed-off
// tickers, one-shot timers, cancellation-aware handler goroutines.
package a

import (
	"net/http"
	"time"

	"spex/internal/dash"
)

// Bus events published through the bus keep its per-subscriber
// drop-oldest policy.
func publishesBus(bus *dash.Bus, e dash.Event) {
	bus.Publish(e)
}

func stopsTicker(done chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

// A ticker handed to the caller is the caller's to stop.
func returnsTicker() *time.Ticker {
	return time.NewTicker(time.Second)
}

// One-shot time.After outside a loop is fine.
func waitsOnce(done chan struct{}) {
	select {
	case <-done:
	case <-time.After(time.Second):
	}
}

// A handler goroutine observing the request context is tied to the
// request lifetime.
func scopedHandler(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	go func() {
		<-ctx.Done()
	}()
	w.WriteHeader(http.StatusOK)
}
