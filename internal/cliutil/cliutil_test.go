package cliutil

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sparse"
)

func TestLoadPresetAll(t *testing.T) {
	for _, name := range Presets {
		if name == "netflix" || name == "movielens" || name == "citeulike" || name == "b2b" || name == "genes" {
			continue // large presets are covered by the dataset package tests
		}
		d, err := LoadPreset(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.R.NNZ() == 0 {
			t.Errorf("%s: empty dataset", name)
		}
	}
	if _, err := LoadPreset("nope", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestLoadDataMutuallyExclusive(t *testing.T) {
	if _, err := LoadData("f", ",", 0, "small", 1); err == nil {
		t.Error("-data with -preset accepted")
	}
	if _, err := LoadData("", ",", 0, "", 1); err == nil {
		t.Error("neither flag accepted")
	}
	if _, err := LoadData("/does/not/exist", ",", 0, "", 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadDataCSV(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(p, []byte("a,x\nb,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadData(p, ",", 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Users() != 2 || d.Items() != 2 {
		t.Fatalf("shape %dx%d", d.Users(), d.Items())
	}
}

func TestLoadDataMatrixMarket(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "m.mtx")
	m := sparse.FromDense([][]bool{{true, false}, {true, true}})
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d, err := LoadData(p, ",", 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.R.Equal(m) {
		t.Fatal("MatrixMarket file round trip through LoadData failed")
	}
}

func TestParseLists(t *testing.T) {
	ints, err := ParseInts(" 1, 2 ,3")
	if err != nil || len(ints) != 3 || ints[2] != 3 {
		t.Fatalf("ParseInts = %v, %v", ints, err)
	}
	if _, err := ParseInts("1,x"); err == nil {
		t.Error("bad int accepted")
	}
	fs, err := ParseFloats("0.5,2")
	if err != nil || len(fs) != 2 || fs[0] != 0.5 {
		t.Fatalf("ParseFloats = %v, %v", fs, err)
	}
	if _, err := ParseFloats("1,,2"); err == nil {
		t.Error("empty float accepted")
	}
}

func TestSplitURLs(t *testing.T) {
	if got, want := SplitURLs(" http://a/ ,,http://b,"), []string{"http://a", "http://b"}; !slices.Equal(got, want) {
		t.Errorf("SplitURLs = %q, want %q", got, want)
	}
	if got := SplitURLs(""); got != nil {
		t.Errorf("SplitURLs of nothing = %q", got)
	}
}

// TestServe: a daemon drains — readiness first, then the listener — when
// its context ends, and a listener that cannot start is an error, not a
// drain.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, &Daemon{Addr: "127.0.0.1:0"}, http.NotFoundHandler(), func() { close(drained) })
	}()
	cancel()
	<-drained
	if err := <-done; err != nil {
		t.Errorf("drained Serve returned %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = Serve(context.Background(), &Daemon{Addr: ln.Addr().String()}, http.NotFoundHandler(), func() { t.Error("drained a daemon that never listened") })
	if err == nil {
		t.Error("Serve on a taken address returned nil")
	}
	if stop, err := StartPprof(""); err != nil {
		t.Errorf("no -pprof-addr: %v", err)
	} else {
		stop()
	}
}

// TestDaemonFlags: the twelve flags both serving daemons share reach the
// Daemon they declare, and an edge left at its zero values resolves to
// the documented defaults.
func TestDaemonFlags(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	d := DaemonFlags(fs)
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:9999", "-drain-wait", "7s", "-pprof-addr", "127.0.0.1:6060",
		"-cache", "-1", "-max-m", "50", "-max-batch", "8", "-max-body", "4096",
		"-max-inflight", "64", "-max-queue", "-1", "-queue-wait", "250ms",
		"-trace-ring", "16", "-trace-slow", "40ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Daemon{Addr: "127.0.0.1:9999", DrainWait: 7 * time.Second, PprofAddr: "127.0.0.1:6060",
		Edge: serve.EdgeConfig{CacheSize: -1, MaxM: 50, MaxBatch: 8, MaxBodyBytes: 4096,
			MaxInFlight: 64, MaxQueue: -1, QueueWait: 250 * time.Millisecond,
			TraceRing: 16, TraceSlow: 40 * time.Millisecond}}
	if *d != want {
		t.Errorf("parsed %+v, want %+v", *d, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 12 {
		t.Errorf("DaemonFlags declared %d flags, want 12", n)
	}

	_, got, err := serve.NewEdge("server", serve.EdgeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxM != 1000 || got.MaxBatch != 1024 || got.MaxBodyBytes != 1<<20 || got.CacheSize != 4096 || got.TraceRing != 256 {
		t.Errorf("zero EdgeConfig resolved to %+v, want MaxM 1000, MaxBatch 1024, MaxBodyBytes 1 MiB, CacheSize 4096, TraceRing 256", got)
	}
}
