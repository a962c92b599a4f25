package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/router"
)

// TestRunErrorsAreStructured enumerates every invalid-field case of the
// run request (the latent-gap satellite: config.Resolve /
// Options.Validate error paths must surface to HTTP clients as
// structured 400 JSON, never as raw internal error strings). Each case
// checks status, the error's field attribution, a message fragment, and
// — via assertNoInternalLeak — that no internal package prefix, module
// path, or Go syntax leaks into the payload.
func TestRunErrorsAreStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxAccesses: 1000})

	cases := []struct {
		name     string
		body     string
		wantCode int
		field    string
		fragment string // for a 200: the same request spelled canonically
	}{
		{"malformed json", `{"design":`, 400, "", "malformed JSON"},
		{"empty body", ``, 400, "", "empty request body"},
		{"trailing garbage", `{} {}`, 400, "", "unexpected data"},
		{"unknown field", `{"designn":"A"}`, 400, "designn", `unknown field "designn"`},
		{"wrong type", `{"accesses":"ten"}`, 400, "accesses", "wrong JSON type"},
		{"unknown design", `{"design":"Z"}`, 400, "design", `unknown design "Z"`},
		{"unknown policy", `{"policy":"mru"}`, 400, "policy", `unknown policy "mru"`},
		{"deleted policy", `{"policy":"static"}`, 400, "policy", `unknown policy "static"; known policies: promotion, LRU, fastLRU, directory`},
		{"unknown mode", `{"mode":"broadcast"}`, 400, "mode", `unknown mode "broadcast"`},
		// A mode name folds case as a policy name does: the run is keyed
		// as its lower-case spelling's, so that one is then a cache hit.
		{"mode name folds case", `{"mode":"Unicast","accesses":10}`, 200, "", `{"mode":"unicast","accesses":10}`},
		{"unknown router", `{"router":"optical"}`, 400, "router", `unknown router "optical"`},
		{"unknown benchmark", `{"benchmark":"linpack"}`, 400, "benchmark", `unknown benchmark "linpack"`},
		{"negative accesses", `{"accesses":-5}`, 400, "accesses", "must be positive"},
		{"excessive accesses", `{"accesses":5000000}`, 400, "accesses", "at most 1000"},
		{"accesses times cores", `{"design":"A","accesses":400,"cores":4}`, 400, "accesses", "at most 1000, got 400 x 4"},
		{"accesses times cores past int64", `{"design":"A","accesses":4611686018427387904,"cores":4}`, 400, "accesses", "at most 1000, got 4611686018427387904 x 4"},
		{"defaulted accesses", `{}`, 400, "accesses", "at most 1000, got 10000 x 1"},
		{"negative sample_every", `{"telemetry":{"sample_every":-1}}`, 400, "telemetry.sample_every", ">= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.wantCode, body)
			}
			if tc.wantCode == http.StatusOK {
				again, same := postRun(t, ts, tc.fragment)
				if src := again.Header.Get("X-Nucad-Cache"); src != "hit" || !bytes.Equal(same, body) {
					t.Fatalf("%s after %s: X-Nucad-Cache %q, same body %v; want a hit on one canonical key", tc.fragment, tc.body, src, bytes.Equal(same, body))
				}
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e struct {
				Error struct {
					Field   string `json:"field"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("body is not a structured error: %v: %s", err, body)
			}
			if e.Error.Field != tc.field {
				t.Errorf("field = %q, want %q", e.Error.Field, tc.field)
			}
			if !strings.Contains(e.Error.Message, tc.fragment) {
				t.Errorf("message %q does not contain %q", e.Error.Message, tc.fragment)
			}
			assertNoInternalLeak(t, string(body))
		})
	}
}

// assertNoInternalLeak fails when an HTTP payload carries internal
// error text: package error prefixes, the module path, file locations,
// or Go formatting artifacts.
func assertNoInternalLeak(t *testing.T, body string) {
	t.Helper()
	for _, leak := range []string{
		"config:", "core:", "cache:", "routing:", "router:", "topology:", "trace:",
		"network:", "place:", "area:", "sim:",
		"nucanet/", "internal/", ".go:", "%!",
	} {
		if strings.Contains(body, leak) {
			t.Errorf("response leaks internal detail %q: %s", leak, body)
		}
	}
}

// TestRunErrorMessagesNameTheCatalogue pins that rejections teach the
// caller the valid vocabulary (from the registries) instead of echoing
// internals.
func TestRunErrorMessagesNameTheCatalogue(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postRun(t, ts, `{"design":"Z"}`)
	for _, id := range []string{"A", "B", "C", "D", "E", "F", "G", "R"} {
		if !strings.Contains(string(body), id) {
			t.Fatalf("design rejection does not list catalogue id %s: %s", id, body)
		}
	}
	_, body = postRun(t, ts, `{"policy":"mru"}`)
	for _, p := range cache.PolicyNames() {
		if !strings.Contains(string(body), p) {
			t.Fatalf("policy rejection does not list %s: %s", p, body)
		}
	}
	_, body = postRun(t, ts, `{"router":"optical"}`)
	for _, name := range router.Names() {
		if !strings.Contains(string(body), name) {
			t.Fatalf("router rejection does not list %s: %s", name, body)
		}
	}
}

// TestUnknownPathAndMethod pins the mux behavior for bad routes.
func TestUnknownPathAndMethod(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}
