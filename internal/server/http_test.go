package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func post(t *testing.T, ts *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Login.
	resp := post(t, ts, "/v1/login", LoginRequest{User: "john"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lr.Tokens) != 1 {
		t.Fatalf("got %d tokens", len(lr.Tokens))
	}

	// Insert two elements.
	for i, trs := range []float64{0.3, 0.8} {
		r := post(t, ts, "/v2/insert", InsertBatchRequest{Token: lr.Tokens[0], Ops: []InsertOp{{
			List: 4,
			Element: StoredElement{
				Sealed: []byte{byte(i), 1, 2, 3},
				TRS:    trs,
				Group:  0,
			},
		}}})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("insert status %d", r.StatusCode)
		}
		r.Body.Close()
	}

	// Query them back, ranked.
	r := post(t, ts, "/v2/query", QueryBatchRequest{Tokens: lr.Tokens, Queries: []ListQuery{{List: 4, Offset: 0, Count: 10}}})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", r.StatusCode)
	}
	var qbr QueryBatchResponse
	if err := json.NewDecoder(r.Body).Decode(&qbr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(qbr.Responses) != 1 {
		t.Fatalf("%d responses for one query", len(qbr.Responses))
	}
	qr := qbr.Responses[0]
	if len(qr.Elements) != 2 || !qr.Exhausted {
		t.Fatalf("query response %+v", qr)
	}
	if qr.Elements[0].TRS != 0.8 || qr.Elements[1].TRS != 0.3 {
		t.Fatal("HTTP query not ranked")
	}

	// Stats.
	sr, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsV2Response
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Lists != 1 || st.Elements != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path   string
		body   interface{}
		status int
		code   string
	}{
		{"/v1/login", LoginRequest{User: "ghost"}, http.StatusNotFound, CodeUnknownUser},
		{"/v2/query", QueryBatchRequest{Queries: []ListQuery{{List: 9, Count: 5}}}, http.StatusNotFound, CodeUnknownList},
		{"/v2/query", QueryBatchRequest{Queries: []ListQuery{{List: 9, Count: -1}}}, http.StatusBadRequest, CodeBadRequest},
		{"/v2/insert", InsertBatchRequest{}, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		r := post(t, ts, tc.path, tc.body)
		if r.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, r.StatusCode, tc.status)
		}
		// Every endpoint, /v1/login included, answers the one envelope.
		var env ErrorV2
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil || env.Error == "" || env.Code != tc.code {
			t.Errorf("%s: envelope %+v (decode err %v), want code %q", tc.path, env, err, tc.code)
		}
		r.Body.Close()
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v2/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Forged token over HTTP.
	lr := post(t, ts, "/v1/login", LoginRequest{User: "john"})
	var login LoginResponse
	if err := json.NewDecoder(lr.Body).Decode(&login); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	forged := login.Tokens[0]
	forged.Group = 5
	r := post(t, ts, "/v2/insert", InsertBatchRequest{Token: forged, Ops: []InsertOp{{
		List:    1,
		Element: StoredElement{Sealed: []byte{1}, TRS: 0.1, Group: 5},
	}}})
	if r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("forged token status %d, want 401", r.StatusCode)
	}
	r.Body.Close()
}

// TestV1SingleOpRoutesGone pins the batch-only protocol: the v1
// single-operation routes are not served, only /v1/login remains.
func TestV1SingleOpRoutesGone(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/query", "/v1/insert", "/v1/remove"} {
		r := post(t, ts, path, struct{}{})
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats: status %d, want 404", r.StatusCode)
	}
}
