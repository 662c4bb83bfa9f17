package dataset

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestLoadRatingsNeverPanics feeds structured garbage to the loader; every
// input must produce either a dataset or an error, never a panic.
func TestLoadRatingsNeverPanics(t *testing.T) {
	tokens := []string{"a", "b", ",", "::", "\t", "1", "-3", "4.5", "NaN", "#", "\n", " ", "%", "x,y,z,w", "::::"}
	f := func(seed uint16, optSel uint8) bool {
		r := rng.New(uint64(seed) + 777)
		var b strings.Builder
		for n := 0; n < r.Intn(40); n++ {
			b.WriteString(tokens[r.Intn(len(tokens))])
		}
		opts := []LoadOptions{
			{Sep: ","},
			{Sep: ",", Threshold: 3},
			{Sep: "::", Threshold: 3},
			{Sep: "\t"},
		}[int(optSel)%4]
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("panic on input %q: %v", b.String(), p)
			}
		}()
		_, _ = LoadRatings(strings.NewReader(b.String()), "fuzz", opts)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRatingsLargeIDs verifies arbitrary string identifiers map to
// dense indices regardless of magnitude or content.
func TestLoadRatingsLargeIDs(t *testing.T) {
	src := "999999999999,zzz\n-17,zzz\nuser with spaces,item/with/slashes\n"
	d, err := LoadRatings(strings.NewReader(src), "ids", LoadOptions{Sep: ","})
	if err != nil {
		t.Fatal(err)
	}
	if d.Users() != 3 || d.Items() != 2 {
		t.Fatalf("shape %dx%d", d.Users(), d.Items())
	}
	if d.UserName(2) != "user with spaces" {
		t.Fatalf("name %q", d.UserName(2))
	}
}

// TestSplitExtremeFractions exercises splits near the boundaries.
func TestSplitExtremeFractions(t *testing.T) {
	d := SyntheticSmall(80)
	tiny := SplitEntries(d.R, 0.01, rng.New(1))
	if tiny.Train.NNZ()+tiny.Test.NNZ() != d.R.NNZ() {
		t.Fatal("entries lost at frac=0.01")
	}
	if tiny.Train.NNZ() >= tiny.Test.NNZ() {
		t.Fatal("frac=0.01 should leave almost everything in test")
	}
	big := SplitEntries(d.R, 0.99, rng.New(1))
	if big.Test.NNZ() == 0 {
		t.Fatal("frac=0.99 should still hold out something at this size")
	}
}

// TestGeneExpressionPreset pins the future-work substrate's shape.
func TestGeneExpressionPreset(t *testing.T) {
	g := SyntheticGeneExpression(3)
	if g.Users() != 900 || g.Items() != 80 || len(g.Clusters) != 8 {
		t.Fatalf("gene preset shape %dx%d with %d modules", g.Users(), g.Items(), len(g.Clusters))
	}
	if d := g.R.Density(); d < 0.03 || d > 0.3 {
		t.Errorf("gene preset density %v outside expression-like range", d)
	}
	// Determinism across calls.
	if !g.R.Equal(SyntheticGeneExpression(3).R) {
		t.Error("gene preset not deterministic")
	}
}

func BenchmarkGenerateMovieLens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SyntheticMovieLens(uint64(i))
	}
}
