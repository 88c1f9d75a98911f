package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// bin is the spexlint binary TestMain builds once for the process.
var bin string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "spexlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "spexlint")
	if out, err := exec.Command("go", "build", "-o", bin, "spex/cmd/spexlint").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building spexlint: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// module lays the files out under a fresh module root, example.com/m.
func module(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// spexlint runs the binary in dir and returns its stderr and exit code.
func spexlint(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatalf("spexlint %v: %v", args, err)
	return "", 0
}

// TestCommandContract pins what CI's spexlint step relies on: the exit
// code says clean (0), broken (1) or findings (2), each finding is one
// `file:line:col: message (spexlint:name)` line on stderr, and a broken
// package is reported beside the other packages' findings.
func TestCommandContract(t *testing.T) {
	const lib = "package p\n\nimport \"context\"\n\n"
	// A test file may root a context; the command loads it and lets it be.
	const test = "package p\n\nimport (\n\t\"context\"\n\t\"testing\"\n)\n\nfunc TestRoot(t *testing.T) { _ = context.Background() }\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		args  []string
		exit  int
		want  string // regexp stderr must match; "" means empty stderr
	}{
		{
			name:  "clean",
			files: map[string]string{"p/p.go": lib + "func Pass(ctx context.Context) context.Context { return ctx }\n", "p/p_test.go": test},
			args:  []string{"./..."},
		},
		{
			name:  "finding",
			files: map[string]string{"p/p.go": lib + "func Root() context.Context {\n\treturn context.Background()\n}\n", "p/p_test.go": test},
			args:  []string{"./..."},
			exit:  2,
			want:  `(?m)^\S*p/p\.go:6:9: context\.Background\(\) outside package main.* \(spexlint:ctxflow\)$`,
		},
		{
			name:  "no arguments",
			files: map[string]string{},
			exit:  1,
			want:  `usage: spexlint <packages>`,
		},
		{
			name:  "type error",
			files: map[string]string{"p/p.go": "package p\n\nfunc F() int { return \"x\" }\n"},
			args:  []string{"./..."},
			exit:  1,
			want:  `p/p\.go:3:\d+: cannot use "x"`,
		},
		{
			// A package the compiler rejects hides no other package's
			// findings.
			name: "broken package beside a finding",
			files: map[string]string{
				"p/p.go": "package p\n\nfunc F() int { return \"x\" }\n",
				"q/q.go": "package q\n\nimport \"context\"\n\nfunc Root() context.Context {\n\treturn context.Background()\n}\n",
			},
			args: []string{"./..."},
			exit: 1,
			want: `(?ms)^\S*q/q\.go:6:9: context\.Background\(\) outside package main.* \(spexlint:ctxflow\)$.*p/p\.go:3:\d+: cannot use "x"`,
		},
		{
			// Nor does a test file that does not parse.
			name: "syntax error beside a finding",
			files: map[string]string{
				"p/p.go":      "package p\n",
				"p/p_test.go": "package p\n\nfunc TestF( {\n",
				"q/q.go":      "package q\n\nimport \"context\"\n\nfunc Root() context.Context {\n\treturn context.Background()\n}\n",
			},
			args: []string{"./..."},
			exit: 1,
			want: `(?ms)^\S*q/q\.go:6:9: context\.Background\(\) outside package main.* \(spexlint:ctxflow\)$.*p/p_test\.go:3:13: syntax error: unexpected \{`,
		},
		{
			// A package that imports a broken one reports that import,
			// and the broken package its own error.
			name: "importer of a broken package",
			files: map[string]string{
				"p/p.go": "package p\n\nfunc F() int { return \"x\" }\n",
				"q/q.go": "package q\n\nimport (\n\t\"context\"\n\n\t\"example.com/m/p\"\n)\n\nvar _ = p.F\n\nfunc Root() context.Context {\n\treturn context.Background()\n}\n",
			},
			args: []string{"./..."},
			exit: 1,
			want: `(?s)p/p\.go:3:\d+: cannot use "x".*q/q\.go:6:2: could not import example\.com/m/p`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stderr, exit := spexlint(t, module(t, tc.files), tc.args...)
			if exit != tc.exit {
				t.Errorf("exit %d, want %d; stderr:\n%s", exit, tc.exit, stderr)
			}
			if tc.want == "" && stderr != "" {
				t.Errorf("stderr not empty:\n%s", stderr)
			}
			if tc.want != "" && !regexp.MustCompile(tc.want).MatchString(stderr) {
				t.Errorf("stderr does not match %s:\n%s", tc.want, stderr)
			}
		})
	}
}
