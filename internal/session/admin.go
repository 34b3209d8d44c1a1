package session

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"tokenarbiter/internal/telemetry"
)

// StatusDoc is the /sessionz document: a point-in-time picture of the
// session layer for operators — how many leases are live, what each key's
// queue looks like, and the full metric snapshot.
type StatusDoc struct {
	Sessions int         `json:"sessions"`
	Conns    int         `json:"conns"`
	Keys     []KeyStatus `json:"keys"`

	Metrics telemetry.Snapshot `json:"metrics"`
}

// KeyStatus is one key's queue state.
type KeyStatus struct {
	Key      string `json:"key"`
	Queued   int    `json:"queued"`
	Holder   uint64 `json:"holder,omitempty"` // holding session id, 0 when free
	Fence    uint64 `json:"fence,omitempty"`  // current grant's fence
	Watchers int    `json:"watchers"`
}

// SessionInfo is one session's row in /sessionz?sessions=1.
type SessionInfo struct {
	ID        uint64   `json:"id"`
	TTLMillis int64    `json:"ttl_ms"`
	ExpiresIn float64  `json:"expires_in_seconds"`
	Held      []string `json:"held,omitempty"`
	Watches   []string `json:"watches,omitempty"`
	Waiting   int      `json:"waiting"`
}

// Status assembles the /sessionz document.
func (s *Server) Status() StatusDoc {
	s.mu.Lock()
	doc := StatusDoc{
		Sessions: len(s.sessions),
		Conns:    len(s.conns),
	}
	for key, kq := range s.keys {
		ks := KeyStatus{
			Key:      key,
			Queued:   kq.live,
			Watchers: len(kq.watchers),
		}
		if kq.holder != nil {
			ks.Holder = kq.holder.id
			ks.Fence = kq.holderFence
		}
		doc.Keys = append(doc.Keys, ks)
	}
	s.mu.Unlock()
	sort.Slice(doc.Keys, func(i, j int) bool { return doc.Keys[i].Key < doc.Keys[j].Key })
	doc.Metrics = s.reg.Snapshot()
	return doc
}

// SessionInfos lists the live sessions, ordered by id.
func (s *Server) SessionInfos() []SessionInfo {
	s.mu.Lock()
	now := s.clock.Now()
	infos := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		info := SessionInfo{
			ID:        sess.id,
			TTLMillis: int64(sess.ttl / time.Millisecond),
			ExpiresIn: sess.deadline.Sub(now).Seconds(),
			Waiting:   len(sess.waiting),
		}
		for key := range sess.held {
			info.Held = append(info.Held, key)
		}
		for key := range sess.watches {
			info.Watches = append(info.Watches, key)
		}
		sort.Strings(info.Held)
		sort.Strings(info.Watches)
		infos = append(infos, info)
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// ServeSessionz is the /sessionz handler: the JSON StatusDoc (lease
// count, per-key queues, metrics), or with ?sessions=1 the per-session
// listing instead. cmd/mutexnode mounts it on the node's admin mux, whose
// /metrics already serves the session registry.
func (s *Server) ServeSessionz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if r.URL.Query().Get("sessions") == "1" {
		_ = enc.Encode(s.SessionInfos())
		return
	}
	_ = enc.Encode(s.Status())
}
