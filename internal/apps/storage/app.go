package storage

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"umac/internal/baseline/localacl"
	"umac/internal/core"
	"umac/internal/identity"
	"umac/internal/pep"
	"umac/internal/requester"
	"umac/internal/store"
	"umac/internal/webutil"
)

// App is the online storage service. It serves each user's FS over HTTP,
// enforcing access either with its built-in ACL matrix or, for owners who
// have delegated, through the UMAC enforcer.
type App struct {
	HostID   core.HostID
	Enforcer *pep.Enforcer
	// ACL is the built-in access control used for non-delegated owners.
	ACL *localacl.Matrix
	// Auth identifies the browsing user for owner-operations and the
	// built-in ACL path.
	Auth identity.Authenticator

	mu    sync.RWMutex
	trees map[core.UserID]*FS
}

// Config configures the storage App.
type Config struct {
	HostID core.HostID
	// Auth identifies browser users; nil means identity.HeaderAuth{}.
	Auth identity.Authenticator
	// PairingStore, when non-nil, persists AM pairings across restarts
	// (pass a WAL-backed store for crash durability).
	PairingStore *store.Store
}

// New constructs the storage application.
func New(cfg Config) *App {
	auth := cfg.Auth
	if auth == nil {
		auth = identity.HeaderAuth{}
	}
	hostID := cfg.HostID
	if hostID == "" {
		hostID = "storage"
	}
	return &App{
		HostID: hostID,
		Enforcer: pep.New(pep.Config{
			Host: hostID, Name: "Online Storage", Store: cfg.PairingStore,
		}),
		ACL:   &localacl.Matrix{},
		Auth:  auth,
		trees: make(map[core.UserID]*FS),
	}
}

// Close stops the enforcer's invalidation streams (one per owner paired
// through the callback). The HTTP surface keeps enforcing afterwards, with
// the decision-cache TTL as the only freshness bound.
func (a *App) Close() error { return a.Enforcer.Close() }

// Tree returns (creating if needed) the owner's file tree.
func (a *App) Tree(owner core.UserID) *FS {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.trees[owner]
	if !ok {
		t = &FS{}
		a.trees[owner] = t
	}
	return t
}

// authorize enforces access to owner's path for the given action,
// dispatching on whether the owner delegated to an AM. It writes the
// protocol response and returns false when the caller must not proceed.
func (a *App) authorize(w http.ResponseWriter, r *http.Request, owner core.UserID, path string, action core.Action) bool {
	realm, err := RealmOf(path)
	if err != nil {
		webutil.WriteError(w, http.StatusBadRequest, err)
		return false
	}
	if a.Enforcer.Delegated(owner) {
		return a.Enforcer.Require(w, r, owner, realm, core.ResourceID(path), action)
	}
	// Built-in mode: identify the subject locally and consult the matrix.
	subject, _ := a.Auth.Authenticate(r)
	if a.ACL.Check(owner, core.ResourceID(path), subject, action) {
		return true
	}
	webutil.WriteErrorf(w, http.StatusForbidden, "storage: %s may not %s %s", subject, action, path)
	return false
}

// Handler returns the application's HTTP surface:
//
//	GET    /files/{owner}/{path...}   download (read)
//	PUT    /files/{owner}/{path...}   upload (write; owner or granted)
//	DELETE /files/{owner}/{path...}   delete
//	GET    /dirs/{owner}/{path...}    directory listing (list)
//	POST   /backup                    act as Requester: copy a remote
//	                                  resource into the tree (Section VI:
//	                                  "it may act as a backup service for
//	                                  online photo albums")
//	/umac/pair/callback               pairing leg (Fig. 3); subscribes the
//	                                  owner's invalidation stream
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/umac/pair/callback", a.Enforcer.HandlePairCallback)

	mux.HandleFunc("GET /files/{owner}/{path...}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		path := "/" + r.PathValue("path")
		if !a.authorize(w, r, owner, path, core.ActionRead) {
			return
		}
		content, err := a.Tree(owner).Get(path)
		if err != nil {
			webutil.WriteError(w, statusForFS(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(content)
	})

	mux.HandleFunc("PUT /files/{owner}/{path...}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		path := "/" + r.PathValue("path")
		if !a.authorize(w, r, owner, path, core.ActionWrite) {
			return
		}
		content, err := io.ReadAll(http.MaxBytesReader(w, r.Body, webutil.MaxBodyBytes))
		if err != nil {
			webutil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := a.Tree(owner).Put(path, content); err != nil {
			webutil.WriteError(w, statusForFS(err), err)
			return
		}
		webutil.WriteJSON(w, http.StatusOK, map[string]any{"stored": path, "bytes": len(content)})
	})

	mux.HandleFunc("DELETE /files/{owner}/{path...}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		path := "/" + r.PathValue("path")
		if !a.authorize(w, r, owner, path, core.ActionDelete) {
			return
		}
		if err := a.Tree(owner).Delete(path); err != nil {
			webutil.WriteError(w, statusForFS(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /dirs/{owner}/{path...}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		path := "/" + r.PathValue("path")
		if !a.authorize(w, r, owner, path+"/", core.ActionList) {
			return
		}
		entries, err := a.Tree(owner).List(path)
		if err != nil {
			webutil.WriteError(w, statusForFS(err), err)
			return
		}
		webutil.WriteJSON(w, http.StatusOK, entries)
	})

	mux.HandleFunc("POST /backup", a.handleBackup)
	return mux
}

// backupRequest asks the storage service to fetch a remote resource (e.g. a
// gallery photo) and store it locally.
type backupRequest struct {
	// URL of the remote resource.
	URL string `json:"url"`
	// DestPath is where to store the copy in the requesting user's tree.
	DestPath string `json:"dest_path"`
}

// handleBackup acts as a Requester against another Host: the storage
// service fetches the resource through the full authorization choreography
// under its own application identity and the browsing user's subject.
func (a *App) handleBackup(w http.ResponseWriter, r *http.Request) {
	user, ok := a.Auth.Authenticate(r)
	if !ok {
		webutil.WriteErrorf(w, http.StatusUnauthorized, "storage: login required for backup")
		return
	}
	var req backupRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" || req.DestPath == "" {
		webutil.WriteErrorf(w, http.StatusBadRequest, "storage: url and dest_path required")
		return
	}
	client := requester.New(requester.Config{
		ID:      core.RequesterID(a.HostID),
		Subject: user,
	})
	content, err := client.Fetch(req.URL, core.ActionRead)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, core.ErrAccessDenied) {
			status = http.StatusForbidden
		}
		webutil.WriteError(w, status, fmt.Errorf("storage: backup fetch: %w", err))
		return
	}
	if err := a.Tree(user).Put(req.DestPath, content); err != nil {
		webutil.WriteError(w, statusForFS(err), err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]any{"backed_up": req.DestPath, "bytes": len(content)})
}

// FileURL builds the canonical URL of a stored file.
func FileURL(baseURL string, owner core.UserID, path string) string {
	return strings.TrimSuffix(baseURL, "/") + "/files/" + string(owner) + "/" + strings.TrimPrefix(path, "/")
}

func statusForFS(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadPath), errors.Is(err, ErrIsDirectory), errors.Is(err, ErrNotDirectory):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
