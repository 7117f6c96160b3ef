package gallery

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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

// Gallery errors.
var (
	// ErrNoAlbum: the album does not exist.
	ErrNoAlbum = errors.New("gallery: no such album")
	// ErrNoPhoto: the photo does not exist.
	ErrNoPhoto = errors.New("gallery: no such photo")
)

// album is one user's photo album; the album name is the protection realm.
type album struct {
	photos map[string][]byte // name → PNG bytes
}

// App is the photo gallery application.
type App struct {
	HostID   core.HostID
	Enforcer *pep.Enforcer
	ACL      *localacl.Matrix
	Auth     identity.Authenticator

	mu     sync.RWMutex
	albums map[core.UserID]map[string]*album
}

// Config configures the gallery App.
type Config struct {
	HostID core.HostID
	Auth   identity.Authenticator
	// PairingStore, when non-nil, persists AM pairings across restarts
	// (pass a WAL-backed store for crash durability).
	PairingStore *store.Store
}

// New constructs the gallery application.
func New(cfg Config) *App {
	auth := cfg.Auth
	if auth == nil {
		auth = identity.HeaderAuth{}
	}
	hostID := cfg.HostID
	if hostID == "" {
		hostID = "gallery"
	}
	return &App{
		HostID: hostID,
		Enforcer: pep.New(pep.Config{
			Host: hostID, Name: "Photo Gallery", Store: cfg.PairingStore,
		}),
		ACL:    &localacl.Matrix{},
		Auth:   auth,
		albums: make(map[core.UserID]map[string]*album),
	}
}

// Close stops the enforcer's invalidation streams (one per owner paired
// through the callback). The HTTP surface keeps enforcing afterwards, with
// the decision-cache TTL as the only freshness bound.
func (a *App) Close() error { return a.Enforcer.Close() }

// CreateAlbum makes an empty album for owner.
func (a *App) CreateAlbum(owner core.UserID, name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.albums[owner] == nil {
		a.albums[owner] = make(map[string]*album)
	}
	if a.albums[owner][name] == nil {
		a.albums[owner][name] = &album{photos: make(map[string][]byte)}
	}
}

// AddPhoto stores a photo (any decodable format; stored as-is) in an album,
// creating the album if needed.
func (a *App) AddPhoto(owner core.UserID, albumName, photoName string, data []byte) error {
	if _, err := Decode(data); err != nil {
		return err
	}
	a.CreateAlbum(owner, albumName)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.albums[owner][albumName].photos[photoName] = append([]byte(nil), data...)
	return nil
}

// Photo retrieves a photo's bytes.
func (a *App) Photo(owner core.UserID, albumName, photoName string) ([]byte, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	alb := a.albums[owner][albumName]
	if alb == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoAlbum, albumName)
	}
	data, ok := alb.photos[photoName]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoPhoto, albumName, photoName)
	}
	return append([]byte(nil), data...), nil
}

// Photos lists an album's photo names, sorted.
func (a *App) Photos(owner core.UserID, albumName string) ([]string, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	alb := a.albums[owner][albumName]
	if alb == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoAlbum, albumName)
	}
	out := make([]string, 0, len(alb.photos))
	for name := range alb.photos {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Edit applies an editing operation to a photo in place.
func (a *App) Edit(owner core.UserID, albumName, photoName string, p EditParams) error {
	data, err := a.Photo(owner, albumName, photoName)
	if err != nil {
		return err
	}
	edited, err := ApplyEdit(data, p)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.albums[owner][albumName].photos[photoName] = edited
	return nil
}

// resourceID names a photo as a protocol resource: "album/photo".
func resourceID(albumName, photoName string) core.ResourceID {
	return core.ResourceID(albumName + "/" + photoName)
}

// authorize enforces access, dispatching between delegated and built-in
// modes exactly like the storage app.
func (a *App) authorize(w http.ResponseWriter, r *http.Request, owner core.UserID, albumName, photoName string, action core.Action) bool {
	res := resourceID(albumName, photoName)
	if a.Enforcer.Delegated(owner) {
		return a.Enforcer.Require(w, r, owner, core.RealmID(albumName), res, action)
	}
	subject, _ := a.Auth.Authenticate(r)
	if a.ACL.Check(owner, res, subject, action) {
		return true
	}
	webutil.WriteErrorf(w, http.StatusForbidden, "gallery: %s may not %s %s", subject, action, res)
	return false
}

// Handler returns the gallery's HTTP surface:
//
//	GET  /albums/{owner}/{album}                    list photos (list)
//	GET  /photos/{owner}/{album}/{photo}            fetch photo (read)
//	PUT  /photos/{owner}/{album}/{photo}            upload photo (write)
//	POST /photos/{owner}/{album}/{photo}/edit       edit photo (write)
//	POST /import                                    act as Requester: load a
//	                                                photo from another Host
//	/umac/pair/callback                             pairing leg (Fig. 3); subscribes
//	                                                the owner's invalidation stream
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/umac/pair/callback", a.Enforcer.HandlePairCallback)

	mux.HandleFunc("GET /albums/{owner}/{album}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		albumName := r.PathValue("album")
		if !a.authorize(w, r, owner, albumName, "", core.ActionList) {
			return
		}
		photos, err := a.Photos(owner, albumName)
		if err != nil {
			webutil.WriteError(w, http.StatusNotFound, err)
			return
		}
		webutil.WriteJSON(w, http.StatusOK, photos)
	})

	mux.HandleFunc("GET /photos/{owner}/{album}/{photo}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		albumName, photoName := r.PathValue("album"), r.PathValue("photo")
		if !a.authorize(w, r, owner, albumName, photoName, core.ActionRead) {
			return
		}
		data, err := a.Photo(owner, albumName, photoName)
		if err != nil {
			webutil.WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		w.Write(data)
	})

	mux.HandleFunc("PUT /photos/{owner}/{album}/{photo}", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		albumName, photoName := r.PathValue("album"), r.PathValue("photo")
		if !a.authorize(w, r, owner, albumName, photoName, core.ActionWrite) {
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, webutil.MaxBodyBytes))
		if err != nil {
			webutil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := a.AddPhoto(owner, albumName, photoName, data); err != nil {
			webutil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		webutil.WriteJSON(w, http.StatusOK, map[string]any{"stored": photoName, "bytes": len(data)})
	})

	mux.HandleFunc("POST /photos/{owner}/{album}/{photo}/edit", func(w http.ResponseWriter, r *http.Request) {
		owner := core.UserID(r.PathValue("owner"))
		albumName, photoName := r.PathValue("album"), r.PathValue("photo")
		if !a.authorize(w, r, owner, albumName, photoName, core.ActionWrite) {
			return
		}
		var p EditParams
		if err := webutil.ReadJSON(r, &p); err != nil {
			webutil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := a.Edit(owner, albumName, photoName, p); err != nil {
			webutil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		webutil.WriteJSON(w, http.StatusOK, map[string]string{"edited": photoName, "op": string(p.Op)})
	})

	mux.HandleFunc("POST /import", a.handleImport)
	return mux
}

// importRequest asks the gallery to load a photo from another Host (e.g.
// the storage service) — Section VI: "users can store photos in their
// online storage service and can load them to the photo gallery."
type importRequest struct {
	URL   string `json:"url"`
	Album string `json:"album"`
	Photo string `json:"photo"`
}

func (a *App) handleImport(w http.ResponseWriter, r *http.Request) {
	user, ok := a.Auth.Authenticate(r)
	if !ok {
		webutil.WriteErrorf(w, http.StatusUnauthorized, "gallery: login required for import")
		return
	}
	var req importRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" || req.Album == "" || req.Photo == "" {
		webutil.WriteErrorf(w, http.StatusBadRequest, "gallery: url, album and photo required")
		return
	}
	client := requester.New(requester.Config{
		ID:      core.RequesterID(a.HostID),
		Subject: user,
	})
	data, err := client.Fetch(req.URL, core.ActionRead)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, core.ErrAccessDenied) {
			status = http.StatusForbidden
		}
		webutil.WriteError(w, status, fmt.Errorf("gallery: import fetch: %w", err))
		return
	}
	if err := a.AddPhoto(user, req.Album, req.Photo, data); err != nil {
		webutil.WriteError(w, http.StatusBadRequest, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]any{
		"imported": req.Album + "/" + req.Photo, "bytes": len(data),
	})
}

// PhotoURL builds the canonical URL of a photo.
func PhotoURL(baseURL string, owner core.UserID, albumName, photoName string) string {
	return strings.TrimSuffix(baseURL, "/") + "/photos/" + string(owner) + "/" + albumName + "/" + photoName
}
