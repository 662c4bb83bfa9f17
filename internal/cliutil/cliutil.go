// Package cliutil holds what the command-line tools share: dataset
// resolution from -data/-preset flags, list parsing, the -pprof-addr side
// listener, and the serving daemons' shared flags and
// listen-drain-shutdown skeleton.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Presets lists the accepted -preset names.
var Presets = []string{"movielens", "citeulike", "b2b", "netflix", "genes", "small"}

// LoadData resolves the -data/-preset flag pair into a dataset. Exactly one
// of path and preset must be non-empty. Files ending in .mtx are parsed as
// MatrixMarket; everything else as separated ratings lines.
func LoadData(path, sep string, threshold float64, preset string, seed uint64) (*dataset.Dataset, error) {
	switch {
	case path != "" && preset != "":
		return nil, fmt.Errorf("-data and -preset are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(path, ".mtx") {
			m, err := sparse.ReadMatrixMarket(f)
			if err != nil {
				return nil, err
			}
			return &dataset.Dataset{Name: path, R: m}, nil
		}
		return dataset.LoadRatings(f, path, dataset.LoadOptions{Sep: sep, Threshold: threshold})
	case preset != "":
		return LoadPreset(preset, seed)
	default:
		return nil, fmt.Errorf("pass -data FILE or -preset NAME (one of %s)", strings.Join(Presets, ", "))
	}
}

// LoadPreset resolves a synthetic preset by name.
func LoadPreset(preset string, seed uint64) (*dataset.Dataset, error) {
	switch preset {
	case "movielens":
		return dataset.SyntheticMovieLens(seed).Dataset, nil
	case "citeulike":
		return dataset.SyntheticCiteULike(seed).Dataset, nil
	case "b2b":
		return dataset.SyntheticB2B(seed).Dataset, nil
	case "netflix":
		return dataset.SyntheticNetflix(seed, 0.25).Dataset, nil
	case "genes":
		return dataset.SyntheticGeneExpression(seed).Dataset, nil
	case "small":
		return dataset.SyntheticSmall(seed).Dataset, nil
	default:
		return nil, fmt.Errorf("unknown preset %q (want one of %s)", preset, strings.Join(Presets, ", "))
	}
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// SplitURLs parses a comma-separated base-URL list, dropping empty entries
// and trailing slashes (so -shards "a/,b," works as expected).
func SplitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// StartPprof serves net/http/pprof on the -pprof-addr side listener, off
// the serving port and its admission gate, until the returned stop is
// called; an empty addr starts nothing.
func StartPprof(addr string) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Serve returns once stop closes the listener.
	go (&http.Server{Handler: mux}).Serve(ln)
	log.Printf("pprof on %s", ln.Addr())
	return func() { ln.Close() }, nil
}

// Daemon is what ocular-serve and ocular-router are both told on the
// command line: where to listen, how long to drain, where to serve pprof,
// and their HTTP edge.
type Daemon struct {
	Addr      string
	DrainWait time.Duration
	PprofAddr string
	Edge      serve.EdgeConfig
}

// DaemonFlags declares on fs the flags that mean the same in both serving
// daemons, and returns the Daemon they fill once fs is parsed. An edge
// flag left at 0 takes serve.NewEdge's default.
func DaemonFlags(fs *flag.FlagSet) *Daemon {
	d := &Daemon{}
	fs.StringVar(&d.Addr, "addr", ":8080", "listen address")
	fs.DurationVar(&d.DrainWait, "drain-wait", 3*time.Second, "on SIGTERM, how long /readyz reports unready before connections drain (lets balancers stop sending)")
	fs.StringVar(&d.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	e := &d.Edge
	fs.IntVar(&e.CacheSize, "cache", 0, "cached top-M lists, merged lists on a router (0 = 4096; negative disables)")
	fs.IntVar(&e.MaxM, "max-m", 0, "cap on requested list length m (0 = 1000; a shard's must cover its router's)")
	fs.IntVar(&e.MaxBatch, "max-batch", 0, "cap on users per batch request (0 = 1024; a shard's must cover its router's)")
	fs.Int64Var(&e.MaxBodyBytes, "max-body", 0, "cap on request body bytes (0 = 1 MiB)")
	fs.IntVar(&e.MaxInFlight, "max-inflight", 0, "admission control: concurrent data-plane requests (0 = unbounded)")
	fs.IntVar(&e.MaxQueue, "max-queue", 0, "admission control: waiters beyond -max-inflight before shedding 429 (0 = 2x max-inflight)")
	fs.DurationVar(&e.QueueWait, "queue-wait", 0, "admission control: how long a queued request may wait for a slot (0 = 100ms)")
	fs.IntVar(&e.TraceRing, "trace-ring", 0, "recent request traces kept for GET /debug/traces (0 = 256; negative disables tracing)")
	fs.DurationVar(&e.TraceSlow, "trace-slow", 0, "log a slow-request line for traced requests at or above this duration (0 disables)")
	return d
}

// Serve runs a daemon: pprof on d.PprofAddr, and h on d.Addr until ctx is
// done — SIGINT/SIGTERM, through the caller's signal.NotifyContext. Then
// it drains: beginDrain flips readiness to 503 first so load balancers
// stop routing here, the data path keeps serving stragglers for
// d.DrainWait, and only then are connections shut down, with 30s to
// finish. It returns instead of exiting so the caller can flush state
// whatever the outcome.
func Serve(ctx context.Context, d *Daemon, h http.Handler, beginDrain func()) error {
	stopPprof, err := StartPprof(d.PprofAddr)
	if err != nil {
		return err
	}
	defer stopPprof()
	srv := &http.Server{Addr: d.Addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	beginDrain()
	log.Printf("shutting down (/readyz now 503; draining for %v before closing)", d.DrainWait)
	time.Sleep(d.DrainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
