package httpapi

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// slowThenOK answers after blocking on release, so a test can hold a
// request in flight across a shutdown.
type slowThenOK struct {
	entered chan struct{}
	release chan struct{}
}

func (h *slowThenOK) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.release
	w.Write([]byte("done"))
}

// TestServeGracefulDrain checks the shutdown contract: cancelling the
// serve context refuses new connections immediately, lets the in-flight
// request finish, and returns nil once drained.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &slowThenOK{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, h, 5*time.Second, nil) }()

	url := "http://" + ln.Addr().String()
	got := make(chan error, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			got <- err
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "done" {
			got <- errors.New("in-flight request mangled: " + string(body))
			return
		}
		got <- nil
	}()
	<-h.entered

	cancel()
	// The listener closes before the drain: new connections must fail
	// fast while the old request is still being served.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond)
		if err != nil {
			break
		}
		// A probe that got in before the listener closed must not stay
		// open: the server would count it as a new connection and the
		// drain would wait out the grace period for it.
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-served:
		t.Fatalf("Serve returned %v before the in-flight request drained", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(h.release)
	if err := <-got; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve after clean drain = %v, want nil", err)
	}
}

// TestServeGraceDeadline checks the other side of the contract: a
// request that refuses to finish cannot hold shutdown hostage past the
// grace period.
func TestServeGraceDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &slowThenOK{entered: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(h.release)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	grace := 150 * time.Millisecond
	go func() { served <- Serve(ctx, ln, h, grace, nil) }()

	go http.Get("http://" + ln.Addr().String())
	<-h.entered

	start := time.Now()
	cancel()
	err = <-served
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Serve with stuck request = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < grace || elapsed > grace+2*time.Second {
		t.Errorf("shutdown took %v with grace %v", elapsed, grace)
	}
}
