// Package graceful is the shutdown path of the repo's HTTP daemon
// (cmd/vmpd): serve until SIGINT/SIGTERM, then drain in-flight
// requests with http.Server.Shutdown under a deadline, so a
// terminating daemon never races its own handlers — the dump-on-exit
// and snapshot-on-exit steps run only after every POST has completed
// or the drain deadline has passed.
package graceful

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Run serves srv until the process receives SIGINT or SIGTERM (or
// stop closes, which tests use in place of a signal), then shuts the
// server down, waiting up to drainTimeout for in-flight requests. ln
// may be nil, in which case srv listens on srv.Addr. Run returns nil
// after a clean drain; a listener failure or an expired drain deadline
// is returned as an error.
func Run(srv *http.Server, ln net.Listener, drainTimeout time.Duration, stop <-chan struct{}) error {
	return RunNotify(srv, ln, drainTimeout, stop, nil)
}

// RunNotify is Run with a lifecycle callback: notify (if non-nil) is
// called with "drain_begin" when a shutdown request arrives and
// "drain_end" after the drain completes, before RunNotify returns.
// Daemons use it to land shutdown phases in their structured event
// log so a trace dump shows where drain time went.
func RunNotify(srv *http.Server, ln net.Listener, drainTimeout time.Duration, stop <-chan struct{}, notify func(phase string)) error {
	errc := make(chan error, 1)
	go func() {
		var err error
		if ln != nil {
			err = srv.Serve(ln)
		} else {
			err = srv.ListenAndServe()
		}
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		// The listener failed (or closed) before any shutdown request.
		return err
	case <-sig:
	case <-stop:
	}

	if notify != nil {
		notify("drain_begin")
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	err := <-errc
	if notify != nil {
		notify("drain_end")
	}
	return err
}
