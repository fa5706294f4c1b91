package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
)

// NewHandler mounts the routes every deployment answers — the whole
// name-addressed API of internal/httpapi bar the single-node extras New
// adds — over svc. acserverd serves them from a *Local, acshardd from a
// *shard.Router; the handlers (decode, validate, call, encode) and the error
// writer are the same code either way.
func NewHandler(svc Service) *http.ServeMux {
	h := handler{svc}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+httpapi.PathHealth, h.health)
	mux.HandleFunc("GET "+httpapi.PathStats, h.stats)
	mux.HandleFunc("POST "+httpapi.PathUsers, h.addUser)
	mux.HandleFunc("GET "+httpapi.PathUsers+"/{name}", h.getUser)
	mux.HandleFunc("POST "+httpapi.PathRelationships, h.relate)
	mux.HandleFunc("DELETE "+httpapi.PathRelationships, h.unrelate)
	mux.HandleFunc("POST "+httpapi.PathShare, h.share)
	mux.HandleFunc("POST "+httpapi.PathRevoke, h.revoke)
	mux.HandleFunc("GET "+httpapi.PathCheck, h.check)
	mux.HandleFunc("POST "+httpapi.PathCheckBatch, h.checkBatch)
	mux.HandleFunc("GET "+httpapi.PathAudience, h.audience)
	mux.HandleFunc("GET "+httpapi.PathReach, h.reach)
	mux.HandleFunc("GET "+httpapi.PathReachAudience, h.reachAudience)
	mux.HandleFunc("GET "+httpapi.PathAudit, h.audit)
	return mux
}

type handler struct{ svc Service }

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// jsonContentType is writeOK's Content-Type, shared so that setting it
// allocates nothing.
var jsonContentType = []string{"application/json"}

// writeOK answers 200 with the JSON line encode appends, written from a
// pooled buffer in one Write.
func writeOK(w http.ResponseWriter, encode func([]byte) []byte) {
	buf := httpapi.GetBuffer()
	defer httpapi.PutBuffer(buf)
	*buf = append(encode(*buf), '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf)
}

// retryAfter is the backoff hint, in seconds, every 503 carries.
const retryAfter = "1"

// writeError answers with err's wire form (httpapi.Classify). An error a
// remote shard already put on the wire (*client.Error) passes through
// verbatim, so a router is transparent to what its shards classified.
func writeError(w http.ResponseWriter, err error) {
	status, code := httpapi.Classify(err)
	body := httpapi.ErrorBody{Error: err.Error(), Code: code}
	var apiErr *client.Error
	if errors.As(err, &apiErr) && apiErr.Code != "" {
		status, body = apiErr.Status, httpapi.ErrorBody{Error: apiErr.Message, Code: apiErr.Code}
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, status, body)
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, httpapi.ErrorBody{Error: err.Error(), Code: httpapi.CodeBadRequest})
}

// maxBody bounds the request bodies the handlers read.
const maxBody = 1 << 20

// readBody reads the request body, truncated to maxBody, into a pooled
// buffer and hands it to decode.
func readBody(r *http.Request, decode func([]byte) error) error {
	buf := httpapi.GetBuffer()
	defer httpapi.PutBuffer(buf)
	var err error
	if *buf, err = httpapi.ReadAll(*buf, io.LimitReader(r.Body, maxBody)); err != nil {
		return err
	}
	return decode(*buf)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := readBody(r, func(b []byte) error { return httpapi.DecodeStrict(b, v) }); err != nil {
		badRequest(w, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// queryGet returns the first value of key in a raw query, as
// url.ParseQuery(raw).Get(key) would, without building the map.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// writeUsers answers an audience, flagging the shards it is missing.
func writeUsers(w http.ResponseWriter, names []string, partial []int) {
	if len(partial) > 0 {
		parts := make([]string, len(partial))
		for i, idx := range partial {
			parts[i] = strconv.Itoa(idx)
		}
		w.Header().Set(httpapi.HeaderShardPartial, strings.Join(parts, ","))
	}
	writeJSON(w, http.StatusOK, httpapi.UsersResponse{Users: names})
}

// --- handlers ---

func (h handler) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Health(r.Context()))
}

func (h handler) stats(w http.ResponseWriter, r *http.Request) {
	st, err := h.svc.Stats(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h handler) addUser(w http.ResponseWriter, r *http.Request) {
	var req httpapi.AddUserRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		badRequest(w, errors.New("name is required"))
		return
	}
	id, err := h.svc.AddUser(r.Context(), req.Name, req.Attrs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, httpapi.UserResponse{ID: id, Name: req.Name})
}

func (h handler) getUser(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := h.svc.UserID(r.Context(), name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.UserResponse{ID: id, Name: name})
}

func (h handler) relate(w http.ResponseWriter, r *http.Request) {
	var req httpapi.RelateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.From == "" || req.To == "" || req.Type == "" {
		badRequest(w, errors.New("from, to and type are required"))
		return
	}
	if err := h.svc.Relate(r.Context(), req.From, req.To, req.Type, req.Mutual); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) unrelate(w http.ResponseWriter, r *http.Request) {
	var req httpapi.UnrelateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := h.svc.Unrelate(r.Context(), req.From, req.To, req.Type); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) share(w http.ResponseWriter, r *http.Request) {
	var req httpapi.ShareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Resource == "" || req.Owner == "" || len(req.Paths) == 0 {
		badRequest(w, errors.New("resource, owner and at least one path are required"))
		return
	}
	for _, p := range req.Paths {
		if _, err := reachac.ParsePath(p); err != nil {
			badRequest(w, err)
			return
		}
	}
	rule, err := h.svc.Share(r.Context(), req.Resource, req.Owner, req.Paths)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, httpapi.ShareResponse{Rule: rule})
}

func (h handler) revoke(w http.ResponseWriter, r *http.Request) {
	var req httpapi.RevokeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	removed, err := h.svc.Revoke(r.Context(), req.Resource, req.Rule)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.RevokeResponse{Removed: removed})
}

func (h handler) check(w http.ResponseWriter, r *http.Request) {
	resource, requester := queryGet(r.URL.RawQuery, "resource"), queryGet(r.URL.RawQuery, "requester")
	if resource == "" || requester == "" {
		badRequest(w, errors.New("resource and requester are required"))
		return
	}
	d, err := h.svc.Check(r.Context(), resource, requester)
	if err != nil {
		writeError(w, err)
		return
	}
	writeOK(w, func(b []byte) []byte { return httpapi.AppendDecision(b, d) })
}

// checkBatch decodes before the service admits the read: a slow client
// trickling its body must not hold a check slot while it does.
func (h handler) checkBatch(w http.ResponseWriter, r *http.Request) {
	var req httpapi.CheckBatchRequest
	err := readBody(r, func(b []byte) (err error) {
		req, err = httpapi.DecodeCheckBatchRequest(b)
		return err
	})
	if err != nil {
		badRequest(w, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if req.Resource == "" {
		badRequest(w, errors.New("resource is required"))
		return
	}
	ds, err := h.svc.CheckBatch(r.Context(), req.Resource, req.Requesters)
	if err != nil {
		writeError(w, err)
		return
	}
	writeOK(w, func(b []byte) []byte {
		return httpapi.AppendCheckBatchResponse(b, httpapi.CheckBatchResponse{Decisions: ds})
	})
}

func (h handler) audience(w http.ResponseWriter, r *http.Request) {
	resource := r.URL.Query().Get("resource")
	if resource == "" {
		badRequest(w, errors.New("resource is required"))
		return
	}
	names, partial, err := h.svc.Audience(r.Context(), resource)
	if err != nil {
		writeError(w, err)
		return
	}
	writeUsers(w, names, partial)
}

func (h handler) reach(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	owner, requester, path := q.Get("owner"), q.Get("requester"), q.Get("path")
	if owner == "" || requester == "" || path == "" {
		badRequest(w, errors.New("owner, requester and path are required"))
		return
	}
	canonical, err := reachac.ParsePath(path)
	if err != nil {
		badRequest(w, err)
		return
	}
	reached, err := h.svc.Reach(r.Context(), owner, requester, path)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.ReachResponse{Reachable: reached, Path: canonical})
}

func (h handler) reachAudience(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	owner, path := q.Get("owner"), q.Get("path")
	if owner == "" || path == "" {
		badRequest(w, errors.New("owner and path are required"))
		return
	}
	if _, err := reachac.ParsePath(path); err != nil {
		badRequest(w, err)
		return
	}
	names, partial, err := h.svc.ReachAudience(r.Context(), owner, path)
	if err != nil {
		writeError(w, err)
		return
	}
	writeUsers(w, names, partial)
}

func (h handler) audit(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		var err error
		if n, err = strconv.Atoi(raw); err != nil || n < 0 {
			badRequest(w, errors.New("n must be a non-negative integer"))
			return
		}
	}
	ds, err := h.svc.Audit(r.Context(), n)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.AuditResponse{Decisions: ds})
}
