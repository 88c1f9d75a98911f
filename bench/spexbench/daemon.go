package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spex/internal/obs"
	"spex/internal/server"
)

// buildSpexd compiles the repository's ./cmd/spexd into binDir and
// returns the binary's path. The go command inherits the caller's
// environment, so run.sh's build cache settings apply.
func buildSpexd(ctx context.Context, root, binDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(binDir, "spexd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/spexd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building spexd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spexd subprocess serving a fresh state directory on a
// free loopback port.
type daemon struct {
	cmd     *exec.Cmd
	state   string
	logPath string
	base    string
	exited  chan struct{}
	waitErr error
}

// startDaemon launches spexd on stateDir, with the extra flags given,
// and returns once it answers GET /v1/status.
func startDaemon(ctx context.Context, bin, stateDir, logPath string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-state", stateDir, "-addr", addr, "-log-level", "warn"}, extra...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the harness die without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spexd: %w", err)
	}
	d := &daemon{cmd: cmd, state: stateDir, logPath: logPath, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// freeAddr picks a loopback port the kernel reports free. The port is
// released before spexd binds it; startDaemon's readiness probe catches
// the rare case that another process took it in between.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (d *daemon) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/status", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("spexd exited during start-up (%v): %s", d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spexd did not answer within 15s: %s", d.logTail())
		}
	}
}

// stop sends SIGTERM and checks the shutdown contract: exit status 0
// within 30 s and no writer lock left anywhere under the state root.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling spexd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("spexd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("spexd exited uncleanly (%v): %s", d.waitErr, d.logTail())
	}
	var locks []string
	err := filepath.WalkDir(d.state, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(e.Name(), ".spex.lock") {
			locks = append(locks, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("scanning state for locks: %w", err)
	}
	if len(locks) > 0 {
		return fmt.Errorf("spexd left %d lock file(s) behind, first %s", len(locks), locks[0])
	}
	return nil
}

// kill ends the daemon without the shutdown contract (error paths).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	// utime and stime are fields 14 and 15 of the line, 12 and 13 here.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client speaks spexd's public HTTP API over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get performs one GET and returns the status, body, and ETag.
func (c *client) get(ctx context.Context, path, ifNoneMatch string) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), nil
}

// jobRun is one job driven end to end over the API.
type jobRun struct {
	doc server.Job
	// post is the POST /jobs round trip; total runs from the POST's send
	// to the end of the job's SSE stream.
	post, total time.Duration
	// events counts SSE frames (comments excluded).
	events int
}

// runJob submits spec to namespace ns, follows the job's SSE stream
// until the daemon closes it, and fetches the terminal job document.
func (c *client) runJob(ctx context.Context, ns string, spec server.JobSpec) (jobRun, error) {
	var jr jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ns/"+ns+"/jobs", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jr, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jr, err
	}
	jr.post = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("POST jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var submitted server.Job
	if err := json.Unmarshal(data, &submitted); err != nil {
		return jr, fmt.Errorf("POST jobs: %w", err)
	}
	prefix := "/v1/ns/" + ns + "/jobs/" + submitted.ID
	if jr.events, err = c.follow(ctx, prefix+"/events"); err != nil {
		return jr, err
	}
	jr.total = time.Since(start)
	code, data, _, err := c.get(ctx, prefix, "")
	if err != nil {
		return jr, err
	}
	if code != http.StatusOK {
		return jr, fmt.Errorf("GET %s: status %d", prefix, code)
	}
	if err := json.Unmarshal(data, &jr.doc); err != nil {
		return jr, fmt.Errorf("GET %s: %w", prefix, err)
	}
	return jr, nil
}

// follow reads an SSE stream to its end and counts its event frames.
func (c *client) follow(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("reading %s: %w", path, err)
	}
	return events, nil
}

// series is one scrape of GET /metrics: each sample line's value by its
// series name with labels, as in spex_http_request_seconds_sum{endpoint="table"}.
type series map[string]float64

func (c *client) scrape(ctx context.Context) (series, error) {
	code, body, _, err := c.get(ctx, "/metrics", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	s := series{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// sum adds up every series of the family name, whatever its labels.
func (s series) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// jobTrace fetches the daemon's span tree of a finished job.
func (c *client) jobTrace(ctx context.Context, ns, id string) (obs.TraceDoc, error) {
	var doc obs.TraceDoc
	path := "/v1/ns/" + ns + "/jobs/" + id + "/trace"
	code, body, _, err := c.get(ctx, path, "")
	if err != nil {
		return doc, err
	}
	if code != http.StatusOK {
		return doc, fmt.Errorf("GET %s: status %d", path, code)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("GET %s: %w", path, err)
	}
	return doc, nil
}

// totalAlloc reads the bytes the daemon has allocated on its heap since
// it started (runtime.MemStats.TotalAlloc) from the heap profile that
// spexd -pprof serves.
func (c *client) totalAlloc(ctx context.Context) (float64, error) {
	const path = "/debug/pprof/heap?debug=1"
	code, body, _, err := c.get(ctx, path, "")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d", path, code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("GET %s: no TotalAlloc line", path)
}
