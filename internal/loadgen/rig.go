package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/amserver"
	"umac/internal/cluster"
	"umac/internal/core"
)

// This file is the cluster side of the harness: it starts a small sharded
// cluster of amserver nodes (shard-a: durable primary + in-memory
// follower; shard-b: durable primary), fronts every node with a
// FaultProxy, and knows how to kill and restart nodes. It has two
// backends, chosen by whether StartCluster gets a binary path:
//
//   - spawned: every node is a real amserver process and a kill is a real
//     SIGKILL, so nothing is shared but TCP;
//   - in-process: every node runs inside the calling process, booted by
//     internal/amserver from the same argument list the binary would get,
//     so the server code runs under the caller's race detector.
//
// Scenarios cannot tell the two apart: they see the same topology, the
// same proxies and the same node names either way.

// rigSecret and rigTokenKey are the deployment-wide shared secrets every
// node receives via secret files.
const (
	rigSecret   = "loadgen-repl-secret"
	rigTokenKey = "loadgen-shared-token-key-0123456"
)

// rigHost is the paired Host every scenario speaks for.
const rigHost core.HostID = "webpics"

// Node is one amserver node (a process or an in-process server) plus its
// client-facing fault shim.
type Node struct {
	// Name keys the node in Rig.Nodes ("a-primary", "a-follower",
	// "b-primary"); Shard and Role mirror the flags it was started with.
	Name  string
	Shard string
	Role  string
	// Addr is the real listen address; URL fronts it. Proxy.URL() is what
	// the ring spec names — client traffic goes through the shim, admin
	// and replication traffic straight to URL.
	Addr  string
	URL   string
	Proxy *FaultProxy
	// StateFile is the durable state path ("" for the in-memory follower);
	// a restart after SIGKILL recovers from its WAL.
	StateFile string

	args    []string
	logPath string

	mu     sync.Mutex
	cmd    *exec.Cmd      // spawned backend
	server *amserver.Node // in-process backend
	done   chan struct{}  // closed once the current process is reaped or server stops
}

// Rig is a running cluster of amserver nodes.
type Rig struct {
	// Dir holds state files, logs and secret files; Binary is the built
	// amserver, or "" when the nodes run in-process.
	Dir    string
	Binary string
	// RingSpec is the -ring value every node was started with (proxy
	// URLs); Ring is its parsed form, used to generate owners that hash
	// where a scenario needs them.
	RingSpec string
	Ring     *cluster.Ring
	// Nodes maps node names to their processes.
	Nodes map[string]*Node
	// Logf receives harness progress lines (testing.T.Logf in tests,
	// log.Printf in cmd/loadgen). Never nil after StartCluster.
	Logf func(format string, args ...any)
}

// Build compiles one of this module's main packages into dir and returns
// the binary path. Must run with a working directory inside the module (go
// test and cmd/loadgen both qualify). The crash-consistency suite uses it
// to build its hammer helper with the same plumbing the rig uses for
// amserver.
func Build(ctx context.Context, dir, pkg string) (string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("loadgen: build %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// BuildServer compiles cmd/amserver into dir and returns the binary path.
func BuildServer(ctx context.Context, dir string) (string, error) {
	return Build(ctx, dir, "umac/cmd/amserver")
}

// freeAddr reserves a loopback port by binding and releasing it. The tiny
// window before the spawned server re-binds is an accepted race — the
// harness runs on a quiet loopback.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// StartCluster starts the standard scenario topology — shard-a with a
// durable primary and an in-memory follower, shard-b with a durable
// primary — every node fronted by a FaultProxy and registered in the ring
// by its proxy URL. With a binary path the nodes are spawned processes of
// it; with "" they run in-process. It blocks until every node answers
// /v1/readyz. extraArgs are appended to every node's flag list; scenarios
// use them to start the cluster with non-default server config
// (ScenarioExtraArgs).
func StartCluster(ctx context.Context, binary, dir string, logf func(string, ...any), extraArgs ...string) (*Rig, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	secretFile := filepath.Join(dir, "repl.secret")
	keyFile := filepath.Join(dir, "token.key")
	if err := os.WriteFile(secretFile, []byte(rigSecret), 0o600); err != nil {
		return nil, err
	}
	if err := os.WriteFile(keyFile, []byte(rigTokenKey), 0o600); err != nil {
		return nil, err
	}

	rig := &Rig{Dir: dir, Binary: binary, Nodes: map[string]*Node{}, Logf: logf}
	mk := func(name, shard, role string) (*Node, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		target := "http://" + addr
		proxy, err := NewFaultProxy(target)
		if err != nil {
			return nil, err
		}
		n := &Node{
			Name: name, Shard: shard, Role: role,
			Addr: addr, URL: target, Proxy: proxy,
			logPath: filepath.Join(dir, name+".log"),
		}
		rig.Nodes[name] = n
		return n, nil
	}
	ap, err := mk("a-primary", "shard-a", "primary")
	if err != nil {
		return nil, err
	}
	af, err := mk("a-follower", "shard-a", "follower")
	if err != nil {
		return nil, err
	}
	bp, err := mk("b-primary", "shard-b", "primary")
	if err != nil {
		return nil, err
	}

	// The ring names the proxies: shard routing, wrong_shard hints and
	// in-shard failover all traverse the fault shims.
	rig.RingSpec = fmt.Sprintf("shard-a=%s|%s,shard-b=%s",
		ap.Proxy.URL(), af.Proxy.URL(), bp.Proxy.URL())
	shards, err := cluster.ParseSpec(rig.RingSpec)
	if err != nil {
		return nil, err
	}
	rig.Ring, err = cluster.New(shards, 0)
	if err != nil {
		return nil, err
	}

	common := []string{
		"-ring", rig.RingSpec,
		"-repl-secret-file", secretFile,
		"-token-key-file", keyFile,
	}
	common = append(common, extraArgs...)
	ap.StateFile = filepath.Join(dir, "a-primary.json")
	ap.args = append([]string{
		"-addr", ap.Addr, "-name", ap.Name, "-base-url", ap.Proxy.URL(),
		"-state", ap.StateFile, "-role", "primary", "-shard", "shard-a",
	}, common...)
	af.args = append([]string{
		"-addr", af.Addr, "-name", af.Name, "-base-url", af.Proxy.URL(),
		"-role", "follower", "-replica-of", ap.URL, "-shard", "shard-a",
	}, common...)
	bp.StateFile = filepath.Join(dir, "b-primary.json")
	bp.args = append([]string{
		"-addr", bp.Addr, "-name", bp.Name, "-base-url", bp.Proxy.URL(),
		"-state", bp.StateFile, "-role", "primary", "-shard", "shard-b",
	}, common...)

	for _, n := range []*Node{ap, af, bp} {
		if err := rig.start(n); err != nil {
			rig.Stop()
			return nil, err
		}
	}
	for _, n := range []*Node{ap, af, bp} {
		if err := waitReady(ctx, n.URL); err != nil {
			rig.Stop()
			return nil, fmt.Errorf("loadgen: node %s never became ready: %w", n.Name, err)
		}
	}
	logf("loadgen: cluster up — ring %s", rig.RingSpec)
	return rig, nil
}

// SpawnShard starts a fresh durable primary for a shard outside the
// original topology, fronted by its own FaultProxy like every other
// node, and waits for readiness. baseSpec is a ring spec WITHOUT the new
// shard (typically the rig's own, plus any shards that joined earlier);
// the node is started on the transition spec baseSpec+",shard=proxyURL",
// because amserver refuses a -shard absent from its ring. That is safe:
// clients keep routing by the old ring, so the new node sees nothing but
// migration traffic until a rebalance pushes the grown ring everywhere.
// The rig's own Ring and RingSpec are left untouched — OwnersFor keeps
// describing the pre-growth placement scenarios seeded under.
func (r *Rig) SpawnShard(ctx context.Context, shard, baseSpec string) (*Node, error) {
	name := shard + "-primary"
	if _, exists := r.Nodes[name]; exists {
		return nil, fmt.Errorf("loadgen: node %q already spawned", name)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	target := "http://" + addr
	proxy, err := NewFaultProxy(target)
	if err != nil {
		return nil, err
	}
	n := &Node{
		Name: name, Shard: shard, Role: "primary",
		Addr: addr, URL: target, Proxy: proxy,
		StateFile: filepath.Join(r.Dir, name+".json"),
		logPath:   filepath.Join(r.Dir, name+".log"),
	}
	ringSpec := fmt.Sprintf("%s,%s=%s", baseSpec, shard, proxy.URL())
	n.args = []string{
		"-addr", n.Addr, "-name", n.Name, "-base-url", n.Proxy.URL(),
		"-state", n.StateFile, "-role", "primary", "-shard", shard,
		"-ring", ringSpec,
		"-repl-secret-file", filepath.Join(r.Dir, "repl.secret"),
		"-token-key-file", filepath.Join(r.Dir, "token.key"),
	}
	r.Nodes[name] = n
	if err := r.start(n); err != nil {
		proxy.Close()
		delete(r.Nodes, name)
		return nil, err
	}
	if err := waitReady(ctx, n.URL); err != nil {
		n.Kill()
		proxy.Close()
		delete(r.Nodes, name)
		return nil, fmt.Errorf("loadgen: spawned shard %s never became ready: %w", shard, err)
	}
	r.Logf("loadgen: shard %s joined as %s (ring spec %s)", shard, name, ringSpec)
	return n, nil
}

// start launches (or relaunches) a node: a process appending its output
// to the node log, or an in-process server on the node's address.
func (r *Rig) start(n *Node) error {
	if r.Binary == "" {
		return r.startInProcess(n)
	}
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(r.Binary, n.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("loadgen: start %s: %w", n.Name, err)
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		logf.Close()
		close(done)
	}()
	n.mu.Lock()
	n.cmd, n.done = cmd, done
	n.mu.Unlock()
	r.Logf("loadgen: %s up (pid %d, %s)", n.Name, cmd.Process.Pid, n.Addr)
	return nil
}

// startInProcess boots the node inside this process through the same
// Parse and Open amserver's main runs, from the node's argument list.
func (r *Rig) startInProcess(n *Node) error {
	cfg, err := amserver.Parse(n.args)
	if err != nil {
		return fmt.Errorf("loadgen: %s: %w", n.Name, err)
	}
	server, err := amserver.Open(cfg)
	if err != nil {
		return fmt.Errorf("loadgen: start %s: %w", n.Name, err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		server.Kill()
		return fmt.Errorf("loadgen: start %s: %w", n.Name, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := server.Serve(ln); err != nil {
			r.Logf("loadgen: %s: %v", n.Name, err)
		}
	}()
	n.mu.Lock()
	n.server, n.done = server, done
	n.mu.Unlock()
	r.Logf("loadgen: %s up (in-process, %s)", n.Name, n.Addr)
	return nil
}

// Kill stops the node with no drain and no snapshot — a SIGKILL of its
// process, or amserver.Node.Kill in-process — and waits until it is gone.
// Only what the WAL persisted before the kill survives.
func (n *Node) Kill() {
	n.mu.Lock()
	cmd, server, done := n.cmd, n.server, n.done
	n.cmd, n.server, n.done = nil, nil, nil
	n.mu.Unlock()
	switch {
	case server != nil:
		server.Kill()
	case cmd != nil && cmd.Process != nil:
		cmd.Process.Kill()
	default:
		return
	}
	// Wait for the reaper (or the serve loop) so a restart never races
	// the dying node's listener.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
}

// Restart starts a previously killed node again from its original
// arguments, on the same address (recovering durable state from snapshot
// + WAL), and waits for readiness.
func (r *Rig) Restart(ctx context.Context, name string) error {
	n, ok := r.Nodes[name]
	if !ok {
		return fmt.Errorf("loadgen: unknown node %q", name)
	}
	if err := r.start(n); err != nil {
		return err
	}
	return waitReady(ctx, n.URL)
}

// Stop kills every node and closes every shim. Safe to call twice.
func (r *Rig) Stop() {
	for _, n := range r.Nodes {
		n.Kill()
		if n.Proxy != nil {
			n.Proxy.Close()
		}
	}
}

// waitReady polls the node's real (shim-bypassing) /v1/readyz until it
// answers 200.
func waitReady(ctx context.Context, base string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("readiness poll: %w", err)
			}
			return fmt.Errorf("readiness poll: last status %d", 0)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// ClientConfig is the seed config for scenario clients: it enters the
// cluster through shard-a's proxied primary and carries a timeout so a
// partitioned shim stalls a request, not the whole run.
func (r *Rig) ClientConfig() amclient.Config {
	return amclient.Config{
		BaseURL:    r.Nodes["a-primary"].Proxy.URL(),
		HTTPClient: &http.Client{Timeout: 15 * time.Second},
	}
}

// AdminClient is a ReplSecret-bearing client straight to the node's real
// URL (bypassing its shim) — what umacctl would be in production. The
// migration drill and the scenario loss audits use it.
func (r *Rig) AdminClient(name string) *amclient.Client {
	n := r.Nodes[name]
	return amclient.New(amclient.Config{
		BaseURL:    n.URL,
		ReplSecret: rigSecret,
		HTTPClient: &http.Client{Timeout: 15 * time.Second},
	})
}

// OwnersFor generates n distinct prefix-named owners that consistent-hash
// to shard (per the rig's ring), deterministically: the same ring, prefix
// and n always yield the same owners. Distinct prefixes keep scenarios
// sharing one rig from colliding on owner state.
func (r *Rig) OwnersFor(prefix, shard string, n int) []core.UserID {
	owners := make([]core.UserID, 0, n)
	for i := 0; len(owners) < n; i++ {
		owner := core.UserID(fmt.Sprintf("%s-%d", prefix, i))
		if r.Ring.Owner(owner).Name == shard {
			owners = append(owners, owner)
		}
	}
	return owners
}
