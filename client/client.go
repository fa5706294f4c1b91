// Package client is the typed Go client for the acserverd HTTP API. It
// mirrors the reachac facade's read and mutation surface over the wire and
// maps the server's error codes back onto the facade's sentinel errors, so
// code written against a local Network ports to a remote one with the same
// errors.Is checks:
//
//	c, _ := client.New("http://localhost:8708")
//	if _, err := c.AddUser(ctx, "alice", nil); errors.Is(err, reachac.ErrDuplicateUser) { ... }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

// Error is the decoded form of a non-2xx API response.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code (httpapi.Code*).
	Code string
	// Message is the server's human-readable error text.
	Message string
	// RetryAfter is the server's backoff hint on 503 responses (zero when
	// absent).
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("acserverd: %s (HTTP %d, %s)", e.Message, e.Status, e.Code)
}

// Is maps the wire error code back onto the sentinel that produced it (the
// httpapi.Errors table read right to left), so callers classify remote
// failures exactly like local ones.
func (e *Error) Is(target error) bool {
	s := httpapi.Sentinel(e.Code)
	return s != nil && s == target
}

// ErrOverloaded matches responses shed by the server's admission control
// (full mutation queue, saturated check limiter); retry after
// Error.RetryAfter.
var ErrOverloaded = httpapi.ErrOverloaded

// Decision is the wire form of one access decision; see httpapi.Decision.
type Decision = httpapi.Decision

// Stats is the combined engine + serving-layer counters; see
// httpapi.StatsResponse.
type Stats = httpapi.StatsResponse

// Health is the health endpoint's report; see httpapi.HealthResponse.
type Health = httpapi.HealthResponse

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// Client talks to one acserverd instance. It is safe for concurrent use.
type Client struct {
	base string
	http *http.Client
	// staleMS is the replica-staleness bound the most recent response
	// carried (see httpapi.HeaderStaleness); -1 until a follower answers.
	staleMS atomic.Int64
}

// BaseURL returns the normalized server address the client targets.
func (c *Client) BaseURL() string { return c.base }

// New returns a client for the server at base, e.g. "http://host:8708"
// (a bare "host:port" gets an http:// scheme).
func New(base string, opts ...Option) (*Client, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: bad server address %q: %w", base, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: server address %q has no host", base)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), http: &http.Client{Timeout: 30 * time.Second}}
	c.staleMS.Store(-1)
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// do issues one request and decodes the response into out (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	resp, err := c.send(ctx, method, u, buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// read issues one read-path request and returns the response body read
// into a pooled buffer; the caller decodes it and hands the buffer back
// with httpapi.PutBuffer.
func (c *Client) read(ctx context.Context, method, u string, body []byte) (*[]byte, error) {
	resp, err := c.send(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := httpapi.GetBuffer()
	if *buf, err = httpapi.ReadAll(*buf, resp.Body); err != nil {
		httpapi.PutBuffer(buf)
		return nil, err
	}
	return buf, nil
}

// send issues one request with an optional JSON body. A 2xx response is
// returned for the caller to read and close; any other is returned as its
// *Error, its body drained so the connection can be reused.
func (c *Client) send(ctx context.Context, method, u string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if v := resp.Header.Get(httpapi.HeaderStaleness); v != "" {
		if ms, perr := strconv.ParseInt(v, 10, 64); perr == nil {
			c.staleMS.Store(ms)
		}
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// decodeError turns a non-2xx response into an *Error, draining what the
// decoder leaves of the body.
func decodeError(resp *http.Response) error {
	apiErr := &Error{Status: resp.StatusCode}
	var body httpapi.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		apiErr.Code, apiErr.Message = body.Code, body.Error
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if apiErr.Message == "" {
		apiErr.Message = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Staleness reports the replica-staleness bound carried by the most recent
// response: how long before answering the serving replica last heard from
// its leader. ok is false until the client has talked to a follower (leaders
// and standalone servers send no bound — their answers are current).
func (c *Client) Staleness() (time.Duration, bool) {
	ms := c.staleMS.Load()
	if ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Health fetches the liveness and recovery report.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, httpapi.PathHealth, nil, nil, &out)
	return out, err
}

// Stats fetches the engine and serving-layer counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.do(ctx, http.MethodGet, httpapi.PathStats, nil, nil, &out)
	return out, err
}

// AddUser creates a member with optional attributes (string, numeric or
// bool values) and returns its ID.
func (c *Client) AddUser(ctx context.Context, name string, attrs map[string]any) (reachac.UserID, error) {
	var out httpapi.UserResponse
	err := c.do(ctx, http.MethodPost, httpapi.PathUsers, nil, httpapi.AddUserRequest{Name: name, Attrs: attrs}, &out)
	return reachac.UserID(out.ID), err
}

// UserID resolves a member name.
func (c *Client) UserID(ctx context.Context, name string) (reachac.UserID, error) {
	var out httpapi.UserResponse
	err := c.do(ctx, http.MethodGet, httpapi.PathUsers+"/"+url.PathEscape(name), nil, nil, &out)
	return reachac.UserID(out.ID), err
}

// Relate adds a directed typed relationship between named members.
func (c *Client) Relate(ctx context.Context, from, to, relType string) error {
	return c.do(ctx, http.MethodPost, httpapi.PathRelationships, nil,
		httpapi.RelateRequest{From: from, To: to, Type: relType}, nil)
}

// RelateMutual adds the relationship in both directions atomically.
func (c *Client) RelateMutual(ctx context.Context, a, b, relType string) error {
	return c.do(ctx, http.MethodPost, httpapi.PathRelationships, nil,
		httpapi.RelateRequest{From: a, To: b, Type: relType, Mutual: true}, nil)
}

// Unrelate removes a relationship.
func (c *Client) Unrelate(ctx context.Context, from, to, relType string) error {
	return c.do(ctx, http.MethodDelete, httpapi.PathRelationships, nil,
		httpapi.UnrelateRequest{From: from, To: to, Type: relType}, nil)
}

// Share attaches one access rule (all paths must hold) to resource,
// registering it to owner on first use, and returns the rule ID.
func (c *Client) Share(ctx context.Context, resource, owner string, paths ...string) (string, error) {
	var out httpapi.ShareResponse
	err := c.do(ctx, http.MethodPost, httpapi.PathShare, nil,
		httpapi.ShareRequest{Resource: resource, Owner: owner, Paths: paths}, &out)
	return out.Rule, err
}

// Revoke detaches a rule, reporting whether it existed.
func (c *Client) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	var out httpapi.RevokeResponse
	err := c.do(ctx, http.MethodPost, httpapi.PathRevoke, nil,
		httpapi.RevokeRequest{Resource: resource, Rule: rule}, &out)
	return out.Removed, err
}

// Check decides whether requester may access resource.
func (c *Client) Check(ctx context.Context, resource, requester string) (Decision, error) {
	buf, err := c.read(ctx, http.MethodGet, c.base+httpapi.PathCheck+
		"?requester="+url.QueryEscape(requester)+"&resource="+url.QueryEscape(resource), nil)
	if err != nil {
		return Decision{}, err
	}
	defer httpapi.PutBuffer(buf)
	return httpapi.DecodeDecision(*buf)
}

// CheckBatch decides one resource for many requesters against a single
// consistent snapshot; the result is index-aligned with requesters.
func (c *Client) CheckBatch(ctx context.Context, resource string, requesters []string) ([]Decision, error) {
	// The request body is not pooled: the transport may still be reading it
	// after the response is in.
	size := len(resource) + 32
	for _, name := range requesters {
		size += len(name) + 3
	}
	body := httpapi.AppendCheckBatchRequest(make([]byte, 0, size), httpapi.CheckBatchRequest{Resource: resource, Requesters: requesters})
	buf, err := c.read(ctx, http.MethodPost, c.base+httpapi.PathCheckBatch, body)
	if err != nil {
		return nil, err
	}
	defer httpapi.PutBuffer(buf)
	out, err := httpapi.DecodeCheckBatchResponse(*buf)
	return out.Decisions, err
}

// Audience lists every member the resource's rules admit.
func (c *Client) Audience(ctx context.Context, resource string) ([]string, error) {
	var out httpapi.UsersResponse
	q := url.Values{"resource": {resource}}
	err := c.do(ctx, http.MethodGet, httpapi.PathAudience, q, nil, &out)
	return out.Users, err
}

// Reach answers a raw reachability query: does a path matching expr lead
// from owner to requester?
func (c *Client) Reach(ctx context.Context, owner, requester, expr string) (bool, error) {
	var out httpapi.ReachResponse
	q := url.Values{"owner": {owner}, "requester": {requester}, "path": {expr}}
	err := c.do(ctx, http.MethodGet, httpapi.PathReach, q, nil, &out)
	return out.Reachable, err
}

// ReachAudience lists every member a path expression reaches from owner.
func (c *Client) ReachAudience(ctx context.Context, owner, expr string) ([]string, error) {
	var out httpapi.UsersResponse
	q := url.Values{"owner": {owner}, "path": {expr}}
	err := c.do(ctx, http.MethodGet, httpapi.PathReachAudience, q, nil, &out)
	return out.Users, err
}

// Audit fetches the retained tail of the audit trail — every decision,
// repeats included — oldest first; n bounds the length (0 means everything
// retained).
func (c *Client) Audit(ctx context.Context, n int) ([]Decision, error) {
	var out httpapi.AuditResponse
	q := url.Values{}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	err := c.do(ctx, http.MethodGet, httpapi.PathAudit, q, nil, &out)
	return out.Decisions, err
}

// ShardExpand advances one round of a distributed reachability search on the
// server's local subgraph. Shard-router internal; see reachac.ShardExpandRequest.
func (c *Client) ShardExpand(ctx context.Context, req httpapi.ShardExpandRequest) (httpapi.ShardExpandResponse, error) {
	var out httpapi.ShardExpandResponse
	err := c.do(ctx, http.MethodPost, httpapi.PathShardExpand, nil, req, &out)
	return out, err
}

// ShardPolicies fetches the server's policy store keyed by user name (unlike
// Policies, whose serialization embeds server-local numeric IDs).
func (c *Client) ShardPolicies(ctx context.Context) ([]reachac.ResourcePolicy, error) {
	var out httpapi.ShardPoliciesResponse
	err := c.do(ctx, http.MethodGet, httpapi.PathShardPolicies, nil, nil, &out)
	return out.Policies, err
}

// Policies exports the server's policy store serialization.
func (c *Client) Policies(ctx context.Context) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, c.base+httpapi.PathPolicies, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// SetPolicies replaces the server's policy store with a serialization
// produced by Policies (or reachac.Network.SavePolicies).
func (c *Client) SetPolicies(ctx context.Context, policies []byte) error {
	resp, err := c.send(ctx, http.MethodPut, c.base+httpapi.PathPolicies, policies)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return nil
}
