// Package simlog is the logging substrate shared by the simulated targets
// and the injection harness. It captures everything a target logs so that
// SPEX-INJ can decide whether the system "pinpoints" an injected
// misconfiguration: a reaction is a vulnerability only if the logs mention
// neither the faulting parameter's name/value nor its location in the
// configuration file (paper §3.1).
package simlog

import (
	"fmt"
	"strings"
	"sync"
)

// Level is a log severity.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelFatal
)

var levelNames = [...]string{"DEBUG", "INFO", "WARN", "ERROR", "FATAL"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
	return levelNames[l]
}

// Entry is one captured log message.
type Entry struct {
	Level   Level
	Message string
}

func (e Entry) String() string { return e.Level.String() + ": " + e.Message }

// Log is a concurrency-safe capture logger handed to each target instance.
// The harness sets sufficient verbosity by capturing every level (paper §4:
// "we set sufficient logging verbosity").
type Log struct {
	mu      sync.Mutex
	entries []Entry
}

// New returns an empty capture log.
func New() *Log { return &Log{} }

func (l *Log) log(level Level, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, Entry{Level: level, Message: fmt.Sprintf(format, args...)})
}

// Debugf records a DEBUG entry.
func (l *Log) Debugf(format string, args ...any) { l.log(LevelDebug, format, args...) }

// Infof records an INFO entry.
func (l *Log) Infof(format string, args ...any) { l.log(LevelInfo, format, args...) }

// Warnf records a WARN entry.
func (l *Log) Warnf(format string, args ...any) { l.log(LevelWarn, format, args...) }

// Errorf records an ERROR entry.
func (l *Log) Errorf(format string, args ...any) { l.log(LevelError, format, args...) }

// Fatalf records a FATAL entry. Unlike log.Fatalf it does not exit; targets
// signal termination through their return values so the harness can observe
// it.
func (l *Log) Fatalf(format string, args ...any) { l.log(LevelFatal, format, args...) }

// Entries returns a snapshot of all captured entries.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len returns the number of captured entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Dump renders the captured log as text, one entry per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Entries() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Pinpoints reports whether the log identifies the misconfigured parameter:
// by name, by its (non-trivial) value, or by configuration-file location
// ("line N"). This is the paper's criterion for a good reaction.
func (l *Log) Pinpoints(param, value string, line int) bool {
	needle := strings.ToLower(param)
	valNeedle := strings.ToLower(strings.TrimSpace(value))
	// Very short values ("1", "on") match accidentally; require length >= 3.
	if len(valNeedle) < 3 {
		valNeedle = ""
	}
	lineNeedle := ""
	if line > 0 {
		lineNeedle = fmt.Sprintf("line %d", line)
	}
	for _, e := range l.Entries() {
		msg := strings.ToLower(e.Message)
		if strings.Contains(msg, needle) {
			return true
		}
		if valNeedle != "" && strings.Contains(msg, valNeedle) {
			return true
		}
		if lineNeedle != "" && strings.Contains(msg, lineNeedle) {
			return true
		}
	}
	return false
}

// Contains reports whether any entry contains the substring (case
// insensitive).
func (l *Log) Contains(sub string) bool {
	needle := strings.ToLower(sub)
	for _, e := range l.Entries() {
		if strings.Contains(strings.ToLower(e.Message), needle) {
			return true
		}
	}
	return false
}
