// Command boundaryd is the boundary-detection server: it holds loaded
// networks as sessions and recomputes boundaries incrementally as clients
// stream join/leave/move/crash deltas.
//
// Usage:
//
//	boundaryd -addr 127.0.0.1:8338            # serve until SIGINT/SIGTERM
//
// The API is documented in internal/serve. Of the shared flags,
// -workers, -shards and -detector set the per-session defaults, and
// -trace, -pprof and -ftdc capture the run; -seed and -out have no
// effect. -trace records every request span, session counter and
// incremental dirty-region counter as a JSONL trace readable with
// cmd/tracestat. -ftdc captures the same counter set plus per-stage
// latency histograms into a delta-encoded binary ring (decode with
// tracestat -ftdc), and GET /v1/metrics serves a live JSON snapshot —
// counter totals and latency quantiles, global and per session.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

type options struct {
	Addr        string
	MaxSessions int
	cli.Common

	// shutdown, when non-nil, substitutes for the process signals so
	// tests can stop a serving run deterministically.
	shutdown <-chan struct{}
}

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:8338", "listen address")
	flag.IntVar(&opts.MaxSessions, "max-sessions", 0, "concurrent session cap (0 = 64)")
	opts.Common.Register(flag.CommandLine)
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "boundaryd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, opts options) error {
	// Realize the shared observability options. A Close failure — a trace
	// that failed schema validation — must surface as a nonzero exit even
	// when serving succeeded, so it is only swallowed when a run error
	// already won.
	sess, err := opts.Common.Start()
	if err != nil {
		return err
	}
	// The server hosts sessions on any registered detector, so the trace
	// may legitimately carry every detector's stage vocabulary.
	sess.SetVocabStages(cli.AllDetectorVocabStages())
	closed := false
	defer func() {
		if !closed {
			sess.Close()
		}
	}()

	srv := serve.New(serve.Options{
		Obs:         sess.Obs,
		Workers:     opts.Workers,
		Shards:      opts.Shards,
		Detector:    opts.Detector,
		MaxSessions: opts.MaxSessions,
	})

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(w, "boundaryd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	if opts.shutdown == nil {
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
	}
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	case sig := <-sigc:
		fmt.Fprintf(w, "boundaryd: %v, shutting down\n", sig)
	case <-opts.shutdown:
		fmt.Fprintln(w, "boundaryd: shutdown requested")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	closed = true
	err = sess.Close()
	if opts.FTDC != "" {
		fmt.Fprintf(w, "ftdc: %d samples, %d schema writes, %d segments in %s\n",
			sess.FTDC.Samples, sess.FTDC.SchemaWrites, sess.FTDC.Segments, opts.FTDC)
	}
	return err
}
