package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
	"reachac/internal/server"
	"reachac/internal/shard"
)

// surface is one deployment of the shared API under the conformance table:
// its handler, and how to break the network that owns "alice" (and so the
// resource "photo") the two ways a durable network breaks.
type surface struct {
	handler http.Handler
	role    string
	fence   func() // poison read-only: mutations answer 503 read-only
	close   func() // close: mutations answer 503 closed
}

func openDurable(t *testing.T) *reachac.Network {
	t.Helper()
	n, err := reachac.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func singleNodeSurface(t *testing.T) surface {
	n := openDurable(t)
	srv := server.New(n, server.Config{})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return surface{
		handler: srv,
		role:    "leader",
		fence:   func() { n.ObserveEpoch(1 << 40) },
		close:   func() { n.Close() },
	}
}

func routerSurface(t *testing.T) surface {
	shards := []*shard.Embedded{shard.NewEmbedded(openDurable(t)), shard.NewEmbedded(openDurable(t))}
	r, err := shard.New(context.Background(), []shard.Backend{shards[0], shards[1]}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	owner := shards[r.Owner("alice")].Network()
	return surface{
		handler: server.NewHandler(r),
		role:    "router",
		fence:   func() { owner.ObserveEpoch(1 << 40) },
		close:   func() { owner.Close() },
	}
}

// wireRow is one request and the answer both surfaces owe it. want is
// matched as a subset of the decoded 2xx body (every key present and
// equal, arrays element by element); code is the error body's code.
type wireRow struct {
	name         string
	method, path string
	body         string
	status       int
	code         string
	want         string
	before       func(surface) // fixture step run ahead of the request
}

const friend12 = "friend%2B%5B1%2C2%5D" // friend+[1,2], query-escaped

// wireTable is the API's contract on the wire: every shared route's success
// case and every way a request goes wrong, in an order that builds the
// fixture it asserts on (alice → bob ⇄ carol → dave, erin apart; "photo"
// owned by alice under friend+[1,3]). The rows marked DIVERGED answered
// differently on acshardd than on acserverd before the surfaces merged.
var wireTable = []wireRow{
	// Users.
	{name: "add user", method: "POST", path: "/v1/users", body: `{"name":"alice"}`, status: 201, want: `{"id":0,"name":"alice"}`},
	{name: "add user with attrs", method: "POST", path: "/v1/users", body: `{"name":"bob","attrs":{"age":24,"admin":true,"city":"basel"}}`, status: 201, want: `{"id":1,"name":"bob"}`},
	{name: "add carol", method: "POST", path: "/v1/users", body: `{"name":"carol"}`, status: 201},
	{name: "add dave", method: "POST", path: "/v1/users", body: `{"name":"dave"}`, status: 201},
	{name: "add erin", method: "POST", path: "/v1/users", body: `{"name":"erin"}`, status: 201},
	{name: "add user without name", method: "POST", path: "/v1/users", body: `{}`, status: 400, code: "bad-request"},
	{name: "add user truncated body", method: "POST", path: "/v1/users", body: `{"name":`, status: 400, code: "bad-request"},
	{name: "add user unknown field", method: "POST", path: "/v1/users", body: `{"nom":"zed"}`, status: 400, code: "bad-request"},
	{name: "add user bad attr type (DIVERGED)", method: "POST", path: "/v1/users", body: `{"name":"zed","attrs":{"x":[1]}}`, status: 400, code: "bad-request"},
	{name: "add duplicate user", method: "POST", path: "/v1/users", body: `{"name":"alice"}`, status: 409, code: "duplicate-user"},
	{name: "get user", method: "GET", path: "/v1/users/carol", status: 200, want: `{"id":2,"name":"carol"}`},
	{name: "add user with a second value", method: "POST", path: "/v1/users", body: `{"name":"zed"} {"name":"yan"}`, status: 400, code: "bad-request"},
	{name: "get unknown user", method: "GET", path: "/v1/users/zed", status: 404, code: "unknown-user"},

	// Relationships.
	{name: "relate", method: "POST", path: "/v1/relationships", body: `{"from":"alice","to":"bob","type":"friend"}`, status: 204},
	{name: "relate mutual", method: "POST", path: "/v1/relationships", body: `{"from":"bob","to":"carol","type":"friend","mutual":true}`, status: 204},
	{name: "relate carol dave", method: "POST", path: "/v1/relationships", body: `{"from":"carol","to":"dave","type":"friend"}`, status: 204},
	{name: "relate missing fields", method: "POST", path: "/v1/relationships", body: `{"from":"alice"}`, status: 400, code: "bad-request"},
	{name: "relate duplicate", method: "POST", path: "/v1/relationships", body: `{"from":"alice","to":"bob","type":"friend"}`, status: 409, code: "duplicate-relationship"},
	{name: "relate unknown user", method: "POST", path: "/v1/relationships", body: `{"from":"alice","to":"zed","type":"friend"}`, status: 404, code: "unknown-user"},
	{name: "relate self", method: "POST", path: "/v1/relationships", body: `{"from":"alice","to":"alice","type":"friend"}`, status: 400, code: "self-relationship"},
	{name: "unrelate", method: "DELETE", path: "/v1/relationships", body: `{"from":"carol","to":"bob","type":"friend"}`, status: 204},
	{name: "unrelate again", method: "DELETE", path: "/v1/relationships", body: `{"from":"carol","to":"bob","type":"friend"}`, status: 404, code: "unknown-relationship"},
	{name: "unrelate unknown type", method: "DELETE", path: "/v1/relationships", body: `{"from":"alice","to":"dave","type":"enemy"}`, status: 404, code: "unknown-relationship"},
	{name: "unrelate malformed", method: "DELETE", path: "/v1/relationships", body: `[`, status: 400, code: "bad-request"},

	// Share.
	{name: "share", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"alice","paths":["friend+[1,3]"]}`, status: 201, want: `{"rule":"rule-1"}`},
	{name: "share second rule", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"alice","paths":["friend+[1]"]}`, status: 201, want: `{"rule":"rule-2"}`},
	{name: "share missing paths", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"alice"}`, status: 400, code: "bad-request"},
	{name: "share malformed path", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"alice","paths":["friend+["]}`, status: 400, code: "bad-request"},
	{name: "share unknown owner", method: "POST", path: "/v1/share", body: `{"resource":"memo","owner":"zed","paths":["friend+[1]"]}`, status: 404, code: "unknown-user"},
	{name: "share another's resource", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"bob","paths":["friend+[1]"]}`, status: 409, code: "resource-owned"},

	// Decisions.
	{name: "check allow", method: "GET", path: "/v1/check?resource=photo&requester=dave", status: 200, want: `{"resource":"photo","requester":"dave","effect":"allow","rule":"rule-1"}`},
	{name: "check deny", method: "GET", path: "/v1/check?resource=photo&requester=erin", status: 200, want: `{"resource":"photo","requester":"erin","effect":"deny","reason":"no access rule satisfied"}`},
	{name: "check owner", method: "GET", path: "/v1/check?resource=photo&requester=alice", status: 200, want: `{"effect":"allow","rule":"owner"}`},
	{name: "check unknown resource denies", method: "GET", path: "/v1/check?resource=nothing&requester=bob", status: 200, want: `{"effect":"deny"}`},
	{name: "check unknown requester", method: "GET", path: "/v1/check?resource=photo&requester=zed", status: 404, code: "unknown-user"},
	{name: "check missing requester", method: "GET", path: "/v1/check?resource=photo", status: 400, code: "bad-request"},
	{name: "check-batch", method: "POST", path: "/v1/check-batch", body: `{"resource":"photo","requesters":["bob","dave","erin"]}`, status: 200,
		want: `{"decisions":[{"requester":"bob","effect":"allow"},{"requester":"dave","effect":"allow"},{"requester":"erin","effect":"deny"}]}`},
	{name: "check-batch trailing whitespace", method: "POST", path: "/v1/check-batch", body: "{\"resource\":\"photo\",\"requesters\":[\"dave\"]} \n", status: 200,
		want: `{"decisions":[{"requester":"dave","effect":"allow"}]}`},
	{name: "check-batch trailing junk", method: "POST", path: "/v1/check-batch", body: `{"resource":"photo","requesters":["bob"]} trailing junk`, status: 400, code: "bad-request"},
	{name: "check-batch missing resource", method: "POST", path: "/v1/check-batch", body: `{"requesters":["bob"]}`, status: 400, code: "bad-request"},
	{name: "check-batch unknown requester", method: "POST", path: "/v1/check-batch", body: `{"resource":"photo","requesters":["bob","zed"]}`, status: 404, code: "unknown-user"},
	{name: "audience", method: "GET", path: "/v1/audience?resource=photo", status: 200, want: `{"users":["bob","carol","dave"]}`},
	{name: "audience missing resource", method: "GET", path: "/v1/audience", status: 400, code: "bad-request"},
	{name: "audience unknown resource", method: "GET", path: "/v1/audience?resource=nothing", status: 404, code: "unknown-resource"},

	// Raw reachability.
	{name: "reach", method: "GET", path: "/v1/reach?owner=alice&requester=carol&path=" + friend12, status: 200, want: `{"reachable":true,"path":"friend+[1,2]"}`},
	{name: "reach miss", method: "GET", path: "/v1/reach?owner=alice&requester=erin&path=" + friend12, status: 200, want: `{"reachable":false}`},
	{name: "reach missing path", method: "GET", path: "/v1/reach?owner=alice&requester=carol", status: 400, code: "bad-request"},
	{name: "reach malformed path", method: "GET", path: "/v1/reach?owner=alice&requester=carol&path=((", status: 400, code: "bad-request"},
	{name: "reach unknown user", method: "GET", path: "/v1/reach?owner=alice&requester=zed&path=" + friend12, status: 404, code: "unknown-user"},
	{name: "reach-audience", method: "GET", path: "/v1/reach-audience?owner=alice&path=" + friend12, status: 200, want: `{"users":["bob","carol"]}`},
	{name: "reach-audience missing owner", method: "GET", path: "/v1/reach-audience?path=" + friend12, status: 400, code: "bad-request"},
	{name: "reach-audience malformed path (DIVERGED)", method: "GET", path: "/v1/reach-audience?owner=alice&path=((", status: 400, code: "bad-request"},
	{name: "reach-audience unknown owner", method: "GET", path: "/v1/reach-audience?owner=zed&path=" + friend12, status: 404, code: "unknown-user"},

	// Audit, health, stats.
	{name: "audit tail", method: "GET", path: "/v1/audit?n=2", status: 200, want: `{"decisions":[{"resource":"photo"},{"resource":"photo"}]}`},
	{name: "audit negative n", method: "GET", path: "/v1/audit?n=-1", status: 400, code: "bad-request"},
	{name: "audit non-numeric n", method: "GET", path: "/v1/audit?n=all", status: 400, code: "bad-request"},
	{name: "health", method: "GET", path: "/v1/health", status: 200, want: `{"status":"ok","engine":"online-bfs","durable":true,"users":5}`},
	{name: "stats", method: "GET", path: "/v1/stats", status: 200, want: `{"users":5,"durable":true}`},

	// Revoke, then the ways a durable network stops taking writes. A commit
	// the owning network refused is an error — never "removed": false over a
	// rule still in force.
	{name: "revoke", method: "POST", path: "/v1/revoke", body: `{"resource":"photo","rule":"rule-1"}`, status: 200, want: `{"removed":true}`},
	{name: "revoke again", method: "POST", path: "/v1/revoke", body: `{"resource":"photo","rule":"rule-1"}`, status: 200, want: `{"removed":false}`},
	{name: "revoke unknown resource", method: "POST", path: "/v1/revoke", body: `{"resource":"nothing","rule":"rule-1"}`, status: 200, want: `{"removed":false}`},
	{name: "revoke malformed", method: "POST", path: "/v1/revoke", body: `{"rule":7}`, status: 400, code: "bad-request"},
	{name: "revoke on a read-only network (DIVERGED)", before: func(s surface) { s.fence() },
		method: "POST", path: "/v1/revoke", body: `{"resource":"photo","rule":"rule-2"}`, status: 503, code: "read-only"},
	{name: "share on a read-only network", method: "POST", path: "/v1/share", body: `{"resource":"photo","owner":"alice","paths":["friend+[2]"]}`, status: 503, code: "read-only"},
	{name: "reads survive read-only", method: "GET", path: "/v1/check?resource=photo&requester=bob", status: 200, want: `{"effect":"allow","rule":"rule-2"}`},
	{name: "revoke on a closed network (DIVERGED)", before: func(s surface) { s.close() },
		method: "POST", path: "/v1/revoke", body: `{"resource":"photo","rule":"rule-2"}`, status: 503, code: "closed"},
}

// TestWireConformance runs the one table against both deployments of the
// shared handler set: acserverd's (server.New over one network) and
// acshardd's (the handler over a 2-shard router of embedded backends).
func TestWireConformance(t *testing.T) {
	for name, mk := range map[string]func(*testing.T) surface{"single-node": singleNodeSurface, "router": routerSurface} {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			for _, row := range wireTable {
				if row.before != nil {
					row.before(s)
				}
				rec := httptest.NewRecorder()
				s.handler.ServeHTTP(rec, httptest.NewRequest(row.method, row.path, strings.NewReader(row.body)))
				body, _ := io.ReadAll(rec.Body)
				if rec.Code != row.status {
					t.Errorf("%s: %s %s = HTTP %d %s, want %d", row.name, row.method, row.path, rec.Code, body, row.status)
					continue
				}
				if h := rec.Header().Get(httpapi.HeaderShardPartial); h != "" {
					t.Errorf("%s: healthy deployment flags a partial answer: X-Shard-Partial=%q", row.name, h)
				}
				switch {
				case row.status >= 300:
					var eb httpapi.ErrorBody
					if err := json.Unmarshal(body, &eb); err != nil || eb.Code != row.code || eb.Error == "" {
						t.Errorf("%s: error body %s, want code %q and a message", row.name, body, row.code)
					}
					if got := rec.Header().Get("Retry-After"); (got != "") != (row.status == 503) {
						t.Errorf("%s: Retry-After = %q on HTTP %d", row.name, got, row.status)
					}
				case row.want != "":
					var got, want any
					if err := json.Unmarshal(body, &got); err != nil {
						t.Errorf("%s: undecodable body %s: %v", row.name, body, err)
					} else if json.Unmarshal([]byte(row.want), &want); !subset(want, got) {
						t.Errorf("%s: body %s does not contain %s", row.name, body, row.want)
					}
				}
			}
			// What the surfaces are meant to differ in: the role they report,
			// and the routing section only a router's stats carry.
			var hl httpapi.HealthResponse
			var st httpapi.StatsResponse
			for path, into := range map[string]any{httpapi.PathHealth: &hl, httpapi.PathStats: &st} {
				rec := httptest.NewRecorder()
				s.handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if err := json.NewDecoder(rec.Body).Decode(into); err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
			}
			if hl.Role != s.role {
				t.Errorf("health role = %q, want %q", hl.Role, s.role)
			}
			if router := s.role == "router"; (st.Router != nil) != router || (router && st.Router.Shards != 2) {
				t.Errorf("stats router section = %+v on a %s", st.Router, s.role)
			}
		})
	}
}

// subset reports whether want is contained in got: objects key by key,
// arrays pairwise at equal length, scalars by equality.
func subset(want, got any) bool {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return false
		}
		for k, wv := range w {
			if gv, ok := g[k]; !ok || !subset(wv, gv) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !subset(w[i], g[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(want, got)
}

// failing is a Service whose every fallible call fails with err.
type failing struct{ err error }

func (f failing) AddUser(context.Context, string, map[string]any) (uint32, error) { return 0, f.err }
func (f failing) UserID(context.Context, string) (uint32, error)                  { return 0, f.err }
func (f failing) Relate(context.Context, string, string, string, bool) error      { return f.err }
func (f failing) Unrelate(context.Context, string, string, string) error          { return f.err }
func (f failing) Share(context.Context, string, string, []string) (string, error) { return "", f.err }
func (f failing) Revoke(context.Context, string, string) (bool, error)            { return false, f.err }
func (f failing) Check(context.Context, string, string) (httpapi.Decision, error) {
	return httpapi.Decision{}, f.err
}
func (f failing) CheckBatch(context.Context, string, []string) ([]httpapi.Decision, error) {
	return nil, f.err
}
func (f failing) Audience(context.Context, string) ([]string, []int, error)   { return nil, nil, f.err }
func (f failing) Reach(context.Context, string, string, string) (bool, error) { return false, f.err }
func (f failing) ReachAudience(context.Context, string, string) ([]string, []int, error) {
	return nil, nil, f.err
}
func (f failing) Audit(context.Context, int) ([]httpapi.Decision, error) { return nil, f.err }
func (f failing) Stats(context.Context) (httpapi.StatsResponse, error) {
	return httpapi.StatsResponse{}, f.err
}
func (f failing) Health(context.Context) httpapi.HealthResponse { return httpapi.HealthResponse{} }

// TestErrorTableOnTheWire sends every row of httpapi.Errors through the
// shared error writer and back through the typed client: the status and code
// are the row's, every 503 carries Retry-After, and the client's error is
// the row's sentinel again — and no other row's. The rows beside the table
// (expired deadlines, an unclassified error, a remote shard's own answer)
// ride along.
func TestErrorTableOnTheWire(t *testing.T) {
	type wireCase struct {
		err      error
		status   int
		code     string
		sentinel error
	}
	var cases []wireCase
	for _, row := range httpapi.Errors {
		cases = append(cases, wireCase{fmt.Errorf("doing a thing: %w", row.Err), row.Status, row.Code, row.Err})
	}
	cases = append(cases,
		wireCase{fmt.Errorf("queued: %w", context.DeadlineExceeded), 503, httpapi.CodeOverloaded, httpapi.ErrOverloaded},
		wireCase{context.Canceled, 503, httpapi.CodeOverloaded, httpapi.ErrOverloaded},
		wireCase{errors.New("disk on fire"), 500, httpapi.CodeInternal, nil},
		wireCase{fmt.Errorf("shard 1: %w", &client.Error{Status: 404, Code: httpapi.CodeUnknownUser, Message: "user \"zed\""}),
			404, httpapi.CodeUnknownUser, reachac.ErrUnknownUser},
	)
	for _, tc := range cases {
		ts := httptest.NewServer(server.NewHandler(failing{tc.err}))
		c, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Check(context.Background(), "photo", "bob")
		ts.Close()
		var apiErr *client.Error
		if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Code != tc.code {
			t.Errorf("%v: on the wire as %v, want HTTP %d %s", tc.err, err, tc.status, tc.code)
			continue
		}
		if (apiErr.RetryAfter > 0) != (tc.status == 503) {
			t.Errorf("%v: Retry-After %v on HTTP %d", tc.err, apiErr.RetryAfter, tc.status)
		}
		for _, row := range httpapi.Errors {
			if got, want := errors.Is(err, row.Err), row.Err == tc.sentinel; got != want {
				t.Errorf("%v: errors.Is(client error, %v) = %v, want %v", tc.err, row.Err, got, want)
			}
		}
	}
}
