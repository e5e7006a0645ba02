package graceful

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestDrainCompletesInFlight shuts down while a slow POST is in
// flight and expects the request to finish — the race the dump-on-exit
// paths used to lose.
func TestDrainCompletesInFlight(t *testing.T) {
	var completed atomic.Int64
	mux := http.NewServeMux()
	started := make(chan struct{}, 1)
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		time.Sleep(200 * time.Millisecond)
		completed.Add(1)
		w.WriteHeader(http.StatusAccepted)
	})
	ln := listen(t)
	srv := &http.Server{Handler: mux}
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- Run(srv, ln, 5*time.Second, stop) }()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/slow", "text/plain", nil)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				err = io.ErrUnexpectedEOF
			}
		}
		reqDone <- err
	}()
	<-started
	close(stop)

	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request = %v", err)
	}
	if completed.Load() != 1 {
		t.Fatal("handler did not complete before shutdown returned")
	}
}

// serving counts the goroutines Run started to run Serve.
func serving() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "graceful.Run.func1(")
}

// TestDrainDeadline expects an over-deadline handler to surface as a
// Run error instead of hanging shutdown forever, and the serve
// goroutine not to outlive Run: Shutdown closed its listener, so Serve
// returns, and its result must land in errc even though Run, past its
// deadline, no longer reads it.
func TestDrainDeadline(t *testing.T) {
	mux := http.NewServeMux()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
	})
	ln := listen(t)
	srv := &http.Server{Handler: mux}
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- Run(srv, ln, 50*time.Millisecond, stop) }()

	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/stuck", "text/plain", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	close(stop)
	if err := <-runDone; err == nil {
		t.Fatal("Run returned nil despite a stuck handler")
	}
	defer close(release)
	for i := 0; serving() > 0; i++ {
		if i == 200 { // ~2 s of 10 ms sleeps
			t.Fatal("the serve goroutine is still running after Run returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenerFailure expects Run to return promptly when the address
// can't be served.
func TestListenerFailure(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	srv := &http.Server{Addr: ln.Addr().String(), Handler: http.NewServeMux()}
	if err := Run(srv, nil, time.Second, nil); err == nil {
		t.Fatal("Run on an occupied port returned nil")
	}
}
