package am

import (
	"net/http"
	"sync"

	"umac/internal/core"
)

// The decision routes are the AM's hot path: every cache-missing resource
// access on every paired Host lands here. A signed request's body is read
// once into a pooled buffer, decoded by the envelope codec (core's
// AppendJSON/DecodeJSON, no reflection), and the response is encoded into
// another pooled buffer and written with one Write call. Pooling is safe
// because the codec copies every string it decodes and every Decide*
// method returns its response by value — nothing retains a pooled buffer
// past the handler.

var (
	bodyPool  = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}
	itemsPool = sync.Pool{New: func() any { s := make([]core.BatchDecisionItem, 0, 16); return &s }}
)

// maxPooledBody caps the buffers kept for reuse; a giant body is served
// and then let go rather than pinned forever.
const maxPooledBody = 64 << 10

func putBody(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// writeDecision writes a decision envelope as the JSON body of a 200, in
// the bytes json.Encoder wrote: the envelope and a newline.
func writeDecision(w http.ResponseWriter, e interface{ AppendJSON([]byte) []byte }) {
	buf := bodyPool.Get().(*[]byte)
	*buf = append(e.AppendJSON((*buf)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf)
	putBody(buf)
}
