// Positive cases for hubsend.
package a

import (
	"net/http"
	"time"

	"spex/internal/dash"
)

func rawBusSend(ch chan dash.Event, e dash.Event) {
	ch <- e // want `bypasses the bus`
}

func ticks() <-chan time.Time {
	return time.Tick(time.Second) // want `time.Tick leaks its ticker`
}

func discardsTicker() {
	time.NewTicker(time.Second) // want `ticker handle discarded`
}

func leaksTicker(done chan struct{}) {
	t := time.NewTicker(time.Second) // want `ticker is never stopped`
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

func stacksTimers(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(time.Second): // want `time.After in a loop`
		}
	}
}

func leakyHandler(w http.ResponseWriter, r *http.Request) {
	go func() { // want `goroutine spawned in an HTTP handler`
		time.Sleep(time.Minute)
	}()
	w.WriteHeader(http.StatusOK)
}
