package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// submitBody POSTs body to an unstarted service's handler.
func submitBody(svc *Service, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body)))
	return rec
}

// padded returns a valid spec of exactly n bytes, padded with whitespace
// inside the object.
func padded(n int) []byte {
	head, tail := `{"tenant":"pad",`, `"experiments":["table1"]}`
	return []byte(head + strings.Repeat(" ", n-len(head)-len(tail)) + tail)
}

// TestSubmitBodyBounds: a submission is exactly one JSON object of at most
// maxSpecBytes bytes; a larger body is 413 and anything after the object
// is 400.
func TestSubmitBodyBounds(t *testing.T) {
	svc := New(Config{QueueDepth: 16})
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"one object", []byte(`{"tenant":"a","experiments":["table1"]}`), http.StatusAccepted},
		{"trailing whitespace", []byte("{\"tenant\":\"a\"}\n\t "), http.StatusAccepted},
		{"at the bound", padded(maxSpecBytes), http.StatusAccepted},
		{"one byte over", padded(maxSpecBytes + 1), http.StatusRequestEntityTooLarge},
		{"2 MiB spec", padded(2<<20 + 39), http.StatusRequestEntityTooLarge},
		{"whitespace past the bound", append([]byte(`{"tenant":"a"}`), bytes.Repeat([]byte(" "), maxSpecBytes)...), http.StatusRequestEntityTooLarge},
		{"two objects", []byte(`{"tenant":"a"} {"tenant":"b"}`), http.StatusBadRequest},
		{"trailing garbage", []byte(`{"tenant":"a"}garbage`), http.StatusBadRequest},
		{"trailing delimiter", []byte(`{"tenant":"a"}]`), http.StatusBadRequest},
	} {
		if rec := submitBody(svc, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
}

// FuzzSubmitSpec drives arbitrary bodies through the submission endpoint
// of an unstarted service: every answer is an accepted campaign or a
// client error, never a panic or a server error.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a","experiments":["table1"]}`,
		`{}`,
		`{"tenant":"a"} {"tenant":"b"}`,
		`{"tenant":"a"}garbage`,
		`{"tenant":"","scale":8,"experiments":["scale"],"topologies":["ring"],"cores":[1,64]}`,
		`{"experiments":["security"],"attacks":["nope"]}`,
		`{"tenant":"a b","scale":-1}`,
		`{"cores":[0]}`,
		`{"unknown":1}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := submitBody(New(Config{}), body)
		switch rec.Code {
		case http.StatusAccepted:
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("202 with an undecodable status: %v", err)
			}
			if !tenantRe.MatchString(st.Tenant) {
				t.Fatalf("accepted tenant %q", st.Tenant)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
