package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reachac"
)

// SyncOption turns a daemon's -sync flag into the WAL fsync policy it names;
// interval is the cadence under "interval".
func SyncOption(mode string, interval time.Duration) (reachac.Option, error) {
	switch mode {
	case "always":
		return reachac.WithSync(reachac.SyncAlways), nil
	case "interval":
		return reachac.WithSyncInterval(interval), nil
	case "never":
		return reachac.WithSync(reachac.SyncNever), nil
	}
	return nil, fmt.Errorf("unknown -sync %q (have always, interval, never)", mode)
}

// Serve is the daemons' shared scaffolding around a handler. It listens
// explicitly (rather than ListenAndServe) so addr may end in :0: the
// kernel-assigned port is announced on stdout as "<NAME>_LISTEN=<addr>"
// before any request is served, and CI and scripts scrape the line instead
// of racing for a fixed port. It then serves until SIGINT/SIGTERM, stops the
// listener, waits for in-flight requests and calls shutdown to release what
// is behind the handler — all bounded by drain.
func Serve(name, addr string, h http.Handler, drain time.Duration, shutdown func(context.Context) error) error {
	httpSrv := &http.Server{
		Handler: h,
		// Slow-client bounds: a trickled request must not hold a connection
		// (or, via the handlers, an admission slot) indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s_LISTEN=%s\n", strings.ToUpper(name), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down: draining requests and queued mutations")
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("HTTP shutdown: %v", err)
	}
	if err := shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Print("clean shutdown")
	return nil
}
