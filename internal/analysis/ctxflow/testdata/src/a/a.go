// Positive cases for ctxflow.
package a

import (
	"context"
	"net/http"
	"os/exec"
	"time"
)

func roots() context.Context {
	return context.Background() // want `context.Background\(\) outside package main`
}

func todos() context.Context {
	return context.TODO() // want `context.TODO\(\) outside package main`
}

func sleeps(ctx context.Context) {
	time.Sleep(time.Second) // want `time.Sleep ignores the context`
}

func spawns(ctx context.Context) *exec.Cmd {
	return exec.Command("true") // want `exec.Command ignores the context`
}

func fetches(ctx context.Context) (*http.Response, error) {
	return http.Get("http://localhost/") // want `http.Get ignores the context`
}

// A nested literal still sees the outer function's context.
func nested(ctx context.Context) func() {
	return func() {
		time.Sleep(time.Minute) // want `time.Sleep ignores the context`
	}
}

// A waiver without a reason waives nothing.
func reasonlessWaiver() context.Context {
	//spexlint:ignore ctxflow
	return context.Background() // want `context.Background\(\) outside package main`
}
