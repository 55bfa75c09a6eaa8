package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestWorkBodyLimit pins how /v1/work tells an oversized body from a
// malformed one: a result report past maxWorkBody is 413 too_large (the
// worker's operator lowers -dist-chunk), never a 400 bad_json that reads
// like a protocol bug.
func TestWorkBodyLimit(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)

	// A register body of exactly n bytes: the name pads it out.
	sized := func(n int) string {
		const frame = `{"name":""}`
		return `{"name":"` + strings.Repeat("a", n-len(frame)) + `"}`
	}
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"at limit", sized(maxWorkBody), http.StatusOK, ""},
		{"over limit", sized(maxWorkBody + 1), http.StatusRequestEntityTooLarge, "too_large"},
		{"truncated", `{"name":"w`, http.StatusBadRequest, "bad_json"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/work/register", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if tc.code == "" {
			continue
		}
		var body struct {
			Error workError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body %q: %v", tc.name, rec.Body, err)
		}
		if body.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, body.Error.Code, tc.code)
		}
		if tc.code == "too_large" && !strings.Contains(body.Error.Message, strconv.Itoa(maxWorkBody)) {
			t.Errorf("%s: message %q does not name the limit", tc.name, body.Error.Message)
		}
	}
}
