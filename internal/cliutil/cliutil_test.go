package cliutil

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

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
	go func() { done <- Serve(ctx, "127.0.0.1:0", http.NotFoundHandler(), func() { close(drained) }, 0) }()
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
	err = Serve(context.Background(), ln.Addr().String(), http.NotFoundHandler(), func() { t.Error("drained a daemon that never listened") }, 0)
	if err == nil {
		t.Error("Serve on a taken address returned nil")
	}
	if stop, err := StartPprof(""); err != nil {
		t.Errorf("no -pprof-addr: %v", err)
	} else {
		stop()
	}
}
