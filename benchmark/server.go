package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
)

// The deployment-wide secrets a primary is started with. The token key is
// fixed so tokens minted before the SIGKILL drill still validate after it.
const (
	replSecret = "umacbench-repl-secret"
	tokenKey   = "umacbench-token-key-0123456789ab"
)

// buildServer compiles cmd/amserver from the checkout at root into
// root/.bench_build/bin and returns the binary path. The go tool's own
// cache makes the second and later builds in a checkout a no-op.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "amserver")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/amserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build amserver: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned amserver process: the system under test, started
// with the shipped defaults (no rate limiter, no follower, no proxy) as a
// durable ring-of-one primary.
type server struct {
	url     string
	logPath string
	bin     string
	args    []string

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once the current process is reaped
}

// startServer picks a free loopback port, spawns amserver with its state
// under dir and waits until /v1/readyz answers.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	// The port is free again until the server binds it; nothing else on
	// this loopback is picking ports in between.
	ln.Close()

	secretFile := filepath.Join(dir, "repl.secret")
	keyFile := filepath.Join(dir, "token.key")
	if err := os.WriteFile(secretFile, []byte(replSecret), 0o600); err != nil {
		return nil, err
	}
	if err := os.WriteFile(keyFile, []byte(tokenKey), 0o600); err != nil {
		return nil, err
	}
	s := &server{
		url:     "http://" + addr,
		logPath: filepath.Join(dir, "amserver.log"),
		bin:     bin,
	}
	s.args = []string{
		"-addr", addr, "-name", "umacbench", "-base-url", s.url,
		"-state", filepath.Join(dir, "am.json"), "-fsync", "-snapshot-every", "5s",
		"-role", "primary", "-shard", "shard-a", "-ring", "shard-a=" + s.url,
		"-repl-secret-file", secretFile, "-token-key-file", keyFile,
	}
	if err := s.start(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// start launches the process (again, after a kill) and waits for readiness.
func (s *server) start(ctx context.Context) error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(s.bin, s.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed outright, the kernel takes the
	// server down with it; every other exit path kills and reaps it below.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start amserver: %w", err)
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		logf.Close()
		close(done)
	}()
	s.mu.Lock()
	s.cmd, s.done = cmd, done
	s.mu.Unlock()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-done:
			return fmt.Errorf("amserver exited before it was ready")
		case <-ctx.Done():
			s.kill()
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return fmt.Errorf("amserver not ready after 20s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pid returns the live process ID (0 when none).
func (s *server) pid() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil || s.cmd.Process == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

// kill SIGKILLs the process and waits until it is reaped. Safe to call
// twice and on a server that never started.
func (s *server) kill() {
	s.mu.Lock()
	cmd, done := s.cmd, s.done
	s.cmd, s.done = nil, nil
	s.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Kill()
	<-done
}

// logTail returns the last n lines of the server log, for set-up failures.
func (s *server) logTail(n int) string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return "(no server log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// cpuSeconds reads the CPU time the process's threads have run, from each
// task's schedstat (nanoseconds; /proc/<pid>/stat only counts 10 ms ticks,
// too coarse for a server that is mostly idle).
func (s *server) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.pid()))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", s.pid(), err)
	}
	var ns float64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		run, _, _ := strings.Cut(string(data), " ")
		v, err := strconv.ParseFloat(run, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected schedstat %q", data)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// rssBytes reads the process's resident set size (VmRSS) from /proc.
func (s *server) rssBytes() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmRSS line %q", sc.Text())
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// amMetrics is the part of GET /v1/metrics the benchmark reads.
type amMetrics struct {
	Events core.EventsHealth `json:"events"`
	Routes map[string]struct {
		Count   float64 `json:"count"`
		TotalMS float64 `json:"total_ms"`
	} `json:"routes"`
}

func readMetrics(hc *http.Client, amURL string) (amMetrics, error) {
	var m amMetrics
	resp, err := hc.Get(amURL + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return m, nil
}

// routeTotals is the request count and total handler time over every
// route the workload drives.
type routeTotals struct {
	count   float64
	totalUS float64
}

func (s *server) routeTotals(hc *http.Client) (routeTotals, error) {
	var t routeTotals
	m, err := readMetrics(hc, s.url)
	for route, r := range m.Routes {
		// The probes the benchmark itself sends are not workload traffic.
		// Nor are the event streams, whose one "request" lasts the whole run.
		if strings.HasSuffix(route, "/metrics") || strings.HasSuffix(route, "/healthz") ||
			strings.HasSuffix(route, "/readyz") || strings.Contains(route, "/events") {
			continue
		}
		t.count += r.Count
		t.totalUS += r.TotalMS * 1000
	}
	return t, err
}

// health fetches /v1/healthz through the typed client.
func (s *server) health(client *http.Client) (core.HealthStatus, error) {
	return amclient.New(amclient.Config{BaseURL: s.url, HTTPClient: client}).Healthz()
}
