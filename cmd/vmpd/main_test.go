package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBoundsEveryPhase: a zero timeout is "wait forever", so
// none of the four may be left unset.
func TestHTTPServerBoundsEveryPhase(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Fatalf("server built for %q with handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded phase: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout < srv.ReadTimeout {
		t.Fatalf("write timeout %v runs from the end of the header and must outlast the body read (%v)", srv.WriteTimeout, srv.ReadTimeout)
	}
}
