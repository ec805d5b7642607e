package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/server"
)

// TestLoginErrorsMapToSentinels: /v1/login answers with the same error
// envelope as every other endpoint, so HTTP.Login failures satisfy
// errors.Is exactly like Local.Login failures — for the handler's own
// rejections and for the shedder's.
func TestLoginErrorsMapToSentinels(t *testing.T) {
	ctx := context.Background()
	srv := server.New([]byte("envelope-secret"), time.Hour)
	srv.RegisterUser("john", 0)
	srv.SetObs(obs.NewRegistry())
	srv.SetAdmission(&server.AdmissionConfig{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	remote := HTTP{BaseURL: ts.URL}

	if _, err := (Local{S: srv}).Login(ctx, "ghost"); !errors.Is(err, server.ErrUnknownUser) {
		t.Fatalf("Local.Login(ghost) = %v, want ErrUnknownUser", err)
	}
	if _, err := remote.Login(ctx, "ghost"); !errors.Is(err, server.ErrUnknownUser) {
		t.Fatalf("HTTP.Login(ghost) = %v, want ErrUnknownUser", err)
	}

	// Occupy the one in-flight slot with a request whose body never
	// arrives, so the next request is shed.
	pr, pw := io.Pipe()
	stuck := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/query", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
		stuck <- err
	}()
	// The deferred close runs before ts.Close, which would otherwise
	// wait on the handler draining the open pipe.
	defer pw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := srv.StatsV2(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ops.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stuck request never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := remote.Login(ctx, "john"); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("shed HTTP.Login = %v, want ErrOverloaded", err)
	}
	pw.Close()
	if err := <-stuck; err != nil {
		t.Fatalf("stuck request: %v", err)
	}
}
