// Package sim wires complete UMAC deployments in-process: an Authorization
// Manager behind an httptest server, any number of protected Hosts, user
// agents that drive the browser redirect legs, and workload generators for
// the benchmark harness.
//
// The paper's prototype ran on Google App Engine with real browsers; this
// package is the laptop-scale substitute that exercises the identical HTTP
// flows (see docs/ARCHITECTURE.md). Every request a World's servers receive
// enters its wire log (World.Wire), which is how tests read the paper's
// message flows off the wire.
package sim

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/identity"
	"umac/internal/pep"
	"umac/internal/webutil"
)

// World is a running in-process deployment.
type World struct {
	AM       *am.AM
	AMServer *httptest.Server
	Outbox   *am.Outbox

	wire wireLog

	mu    sync.Mutex
	hosts map[core.HostID]*SimpleHost
}

// NewWorld starts an AM with an outbox notifier.
func NewWorld() *World { return NewWorldConfig(am.Config{}) }

// NewWorldConfig starts a world with a customized AM configuration
// (e.g. a short token TTL for expiry tests). Name, Notifier and Auth
// receive the standard defaults when unset.
func NewWorldConfig(cfg am.Config) *World {
	outbox, _ := cfg.Notifier.(*am.Outbox)
	if cfg.Notifier == nil {
		outbox = &am.Outbox{}
		cfg.Notifier = outbox
	}
	if cfg.Name == "" {
		cfg.Name = "am"
	}
	if cfg.Auth == nil {
		cfg.Auth = identity.HeaderAuth{}
	}
	a := am.New(cfg)
	w := &World{
		AM:     a,
		Outbox: outbox,
		hosts:  make(map[core.HostID]*SimpleHost),
	}
	w.AMServer = w.Serve(AMServerName, a.Handler())
	a.SetBaseURL(w.AMServer.URL)
	return w
}

// Client returns a typed v1 API client acting as user — the programmatic
// equivalent of that user's browser session against the world's AM.
func (w *World) Client(user core.UserID) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: w.AMServer.URL, User: user})
}

// Close shuts down every server in the world. Host enforcers close first:
// an open invalidation stream is an outstanding request that would
// otherwise hold the AM server's Close.
func (w *World) Close() {
	w.mu.Lock()
	hosts := make([]*SimpleHost, 0, len(w.hosts))
	for _, h := range w.hosts {
		hosts = append(hosts, h)
	}
	w.mu.Unlock()
	for _, h := range hosts {
		h.Enforcer.Close()
		h.Server.Close()
	}
	w.AMServer.Close()
	w.AM.Close()
}

// Host returns a previously added host by ID.
func (w *World) Host(id core.HostID) *SimpleHost {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hosts[id]
}

// SimpleHost is a minimal protected Host application: an in-memory resource
// tree with GET/PUT access guarded by a pep.Enforcer. The prototype apps in
// internal/apps are full applications; SimpleHost is the protocol-focused
// fixture for tests and benchmarks. Unlike the apps, its pairing callback
// does not subscribe the owner's invalidation stream: a test that wants
// push freshness calls Enforcer.StartInvalidationStream itself, after its
// setup mutations, so no setup event can race the cache it measures.
type SimpleHost struct {
	ID       core.HostID
	Enforcer *pep.Enforcer
	Server   *httptest.Server

	mu        sync.RWMutex
	resources map[core.ResourceID]*simResource
}

type simResource struct {
	owner   core.UserID
	realm   core.RealmID
	content []byte
}

// AddHost creates and starts a SimpleHost registered in the world.
func (w *World) AddHost(id core.HostID) *SimpleHost {
	h := &SimpleHost{
		ID:        id,
		resources: make(map[core.ResourceID]*simResource),
	}
	h.Enforcer = pep.New(pep.Config{Host: id, Name: string(id)})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /umac/pair", h.handlePair)
	mux.HandleFunc("/umac/pair/callback", h.Enforcer.ServePairCallback)
	mux.HandleFunc("GET /res/{id...}", h.handleGet)
	mux.HandleFunc("PUT /res/{id...}", h.handlePut)
	h.Server = w.Serve(string(id), mux)
	h.Enforcer.SetBaseURL(h.Server.URL)
	w.mu.Lock()
	w.hosts[id] = h
	w.mu.Unlock()
	return h
}

// AddResource stores a resource owned by owner in the given realm.
func (h *SimpleHost) AddResource(owner core.UserID, realm core.RealmID, id core.ResourceID, content []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.resources[id] = &simResource{owner: owner, realm: realm, content: append([]byte(nil), content...)}
}

// ResourceURL returns the resource's URL on this host.
func (h *SimpleHost) ResourceURL(id core.ResourceID) string {
	return h.Server.URL + "/res/" + string(id)
}

func (h *SimpleHost) lookup(id core.ResourceID) (*simResource, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r, ok := h.resources[id]
	return r, ok
}

// handlePair opens Fig. 3: the logged-in user names their AM and is
// redirected there to confirm the delegation.
func (h *SimpleHost) handlePair(w http.ResponseWriter, r *http.Request) {
	user, ok := identity.HeaderAuth{}.Authenticate(r)
	if !ok {
		webutil.WriteErrorf(w, http.StatusUnauthorized, "sim: log in to pair an AM")
		return
	}
	http.Redirect(w, r, h.Enforcer.BeginPairing(r.URL.Query().Get(core.ParamAM), user), http.StatusFound)
}

func (h *SimpleHost) handleGet(w http.ResponseWriter, r *http.Request) {
	id := core.ResourceID(r.PathValue("id"))
	res, ok := h.lookup(id)
	if !ok {
		webutil.WriteErrorf(w, http.StatusNotFound, "no such resource %s", id)
		return
	}
	if !h.Enforcer.Require(w, r, res.owner, res.realm, id, core.ActionRead) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(res.content)
}

func (h *SimpleHost) handlePut(w http.ResponseWriter, r *http.Request) {
	id := core.ResourceID(r.PathValue("id"))
	res, ok := h.lookup(id)
	if !ok {
		webutil.WriteErrorf(w, http.StatusNotFound, "no such resource %s", id)
		return
	}
	if !h.Enforcer.Require(w, r, res.owner, res.realm, id, core.ActionWrite) {
		return
	}
	body := make([]byte, 0, 1024)
	buf := make([]byte, 1024)
	for {
		n, err := r.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	h.mu.Lock()
	h.resources[id].content = body
	h.mu.Unlock()
	webutil.WriteJSON(w, http.StatusOK, map[string]int{"stored": len(body)})
}

// UserAgent simulates a user's browser: it authenticates to the AM via the
// identity header and follows redirects, driving the Fig. 3 and Fig. 4
// browser legs.
type UserAgent struct {
	User   core.UserID
	Client *http.Client
}

// NewUserAgent returns a browser for the given user.
func NewUserAgent(user core.UserID) *UserAgent {
	return &UserAgent{
		User: user,
		Client: &http.Client{
			Transport: &headerInjector{user: string(user), base: http.DefaultTransport},
		},
	}
}

// headerInjector adds the simulated-authentication header to every request
// (the user is "logged in everywhere").
type headerInjector struct {
	user string
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (h *headerInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	clone := req.Clone(req.Context())
	clone.Header.Set(identity.DefaultUserHeader, h.user)
	return h.base.RoundTrip(clone)
}

// Visit GETs a URL (following redirects) and requires a 2xx outcome.
func (ua *UserAgent) Visit(rawURL string) error {
	resp, err := ua.Client.Get(rawURL)
	if err != nil {
		return fmt.Errorf("sim: visit %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("sim: visit %s: status %d", rawURL, resp.StatusCode)
	}
	return nil
}

// PairHost drives the complete Fig. 3 flow: the user configures their AM at
// the Host, the browser is bounced Host→AM→Host, and the Host exchanges the
// one-time code for the channel secret.
func (ua *UserAgent) PairHost(h *SimpleHost, amURL string) error {
	start := h.Server.URL + "/umac/pair?" + url.Values{core.ParamAM: {amURL}}.Encode()
	if err := ua.Visit(start); err != nil {
		return fmt.Errorf("sim: pairing: %w", err)
	}
	if !h.Enforcer.Delegated(ua.User) {
		return fmt.Errorf("sim: pairing did not complete for %s at %s", ua.User, h.ID)
	}
	return nil
}

// PairEnforcer drives Fig. 3 for any pep.Enforcer-based application (the
// prototype apps use this).
func (ua *UserAgent) PairEnforcer(e *pep.Enforcer, amURL string) error {
	confirmURL := e.BeginPairing(amURL, ua.User)
	if err := ua.Visit(confirmURL); err != nil {
		return fmt.Errorf("sim: pairing: %w", err)
	}
	if !e.Delegated(ua.User) {
		return fmt.Errorf("sim: pairing did not complete for %s", ua.User)
	}
	return nil
}

// AMURL trims a trailing slash for URL joining.
func AMURL(base string) string { return strings.TrimSuffix(base, "/") }
