// Package cliutil holds what the command-line tools share: dataset
// resolution from -data/-preset flags, list parsing, the -pprof-addr side
// listener and the serving daemons' listen-drain-shutdown skeleton.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
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
// the serving port, until the returned stop is called; an empty addr
// starts nothing.
func StartPprof(addr string) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := obs.StartPprof(addr)
	if err != nil {
		return nil, err
	}
	log.Printf("pprof on %s", ln.Addr())
	return func() { ln.Close() }, nil
}

// Serve listens on addr and serves h until ctx is done — SIGINT/SIGTERM,
// through the caller's signal.NotifyContext — then drains: beginDrain flips
// readiness to 503 first so load balancers stop routing here, the data
// path keeps serving stragglers for drainWait, and only then are
// connections shut down, with 30s to finish. It returns instead of exiting
// so the caller can flush state whatever the outcome.
func Serve(ctx context.Context, addr string, h http.Handler, beginDrain func(), drainWait time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	beginDrain()
	log.Printf("shutting down (/readyz now 503; draining for %v before closing)", drainWait)
	time.Sleep(drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
