package dataset

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestPaperToyShape(t *testing.T) {
	toy := PaperToy()
	if toy.Users() != 12 || toy.Items() != 12 {
		t.Fatalf("toy shape %dx%d, want 12x12", toy.Users(), toy.Items())
	}
	if len(toy.Clusters) != 3 {
		t.Fatalf("toy has %d clusters, want 3", len(toy.Clusters))
	}
	if len(toy.Held) != 3 {
		t.Fatalf("toy has %d held pairs, want 3", len(toy.Held))
	}
	// Held pairs must be unknowns (they are the candidate recommendations).
	for _, h := range toy.Held {
		if toy.R.Has(h[0], h[1]) {
			t.Errorf("held pair %v present in matrix", h)
		}
	}
	// Every held pair lies inside at least one planted co-cluster.
	for _, h := range toy.Held {
		if !insideAnyCluster(toy.Clusters, h[0], h[1]) {
			t.Errorf("held pair %v not inside any cluster", h)
		}
	}
	// Users 3, 10, 11 and items 0, 10, 11 are empty margins.
	for _, u := range []int{3, 10, 11} {
		if toy.R.RowNNZ(u) != 0 {
			t.Errorf("user %d should be empty", u)
		}
	}
	for _, i := range []int{0, 10, 11} {
		if toy.R.ColNNZ(i) != 0 {
			t.Errorf("item %d should be empty", i)
		}
	}
}

func TestPaperToyOverlap(t *testing.T) {
	toy := PaperToy()
	// User 6 is in clusters 2 and 3 (indices 1 and 2); item 4 in all three.
	inCluster := func(cl ToyCoCluster, u int) bool {
		for _, v := range cl.Users {
			if v == u {
				return true
			}
		}
		return false
	}
	itemIn := func(cl ToyCoCluster, i int) bool {
		for _, v := range cl.Items {
			if v == i {
				return true
			}
		}
		return false
	}
	if inCluster(toy.Clusters[0], 6) || !inCluster(toy.Clusters[1], 6) || !inCluster(toy.Clusters[2], 6) {
		t.Error("user 6 cluster membership wrong")
	}
	for c := range toy.Clusters {
		if !itemIn(toy.Clusters[c], 4) {
			t.Errorf("item 4 missing from cluster %d", c)
		}
	}
}

func insideAnyCluster(clusters []ToyCoCluster, u, i int) bool {
	for _, cl := range clusters {
		uIn, iIn := false, false
		for _, v := range cl.Users {
			if v == u {
				uIn = true
			}
		}
		for _, v := range cl.Items {
			if v == i {
				iIn = true
			}
		}
		if uIn && iIn {
			return true
		}
	}
	return false
}

func TestSplitEntries(t *testing.T) {
	toy := PaperToy()
	r := rng.New(1)
	sp := SplitEntries(toy.R, 0.75, r)
	if sp.Train.Rows() != toy.R.Rows() || sp.Test.Rows() != toy.R.Rows() {
		t.Fatal("split changed shape")
	}
	if sp.Train.NNZ()+sp.Test.NNZ() != toy.R.NNZ() {
		t.Fatalf("split lost entries: %d + %d != %d", sp.Train.NNZ(), sp.Test.NNZ(), toy.R.NNZ())
	}
	wantTrain := int(float64(toy.R.NNZ())*0.75 + 0.5)
	if sp.Train.NNZ() != wantTrain {
		t.Fatalf("train nnz = %d, want %d", sp.Train.NNZ(), wantTrain)
	}
	// Disjointness: no entry in both parts.
	sp.Train.Each(func(u, i int) {
		if sp.Test.Has(u, i) {
			t.Errorf("entry (%d,%d) in both train and test", u, i)
		}
	})
	// Union recovers the original.
	b := sparse.NewBuilder(toy.R.Rows(), toy.R.Cols())
	sp.Train.Each(func(u, i int) { b.Add(u, i) })
	sp.Test.Each(func(u, i int) { b.Add(u, i) })
	if !b.Build().Equal(toy.R) {
		t.Fatal("train ∪ test != original")
	}
}

func TestSplitDeterministicPerSeed(t *testing.T) {
	d := SyntheticSmall(3)
	a := SplitEntries(d.R, 0.75, rng.New(9))
	b := SplitEntries(d.R, 0.75, rng.New(9))
	c := SplitEntries(d.R, 0.75, rng.New(10))
	if !a.Train.Equal(b.Train) || !a.Test.Equal(b.Test) {
		t.Fatal("same seed gave different splits")
	}
	if a.Train.Equal(c.Train) {
		t.Fatal("different seeds gave identical splits")
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	toy := PaperToy()
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitEntries(%v) did not panic", f)
				}
			}()
			SplitEntries(toy.R, f, rng.New(1))
		}()
	}
}

func TestSubsampleEntries(t *testing.T) {
	d := SyntheticSmall(5)
	r := rng.New(2)
	half := SubsampleEntries(d.R, 0.5, r)
	want := int(float64(d.R.NNZ())*0.5 + 0.5)
	if half.NNZ() != want {
		t.Fatalf("subsample nnz = %d, want %d", half.NNZ(), want)
	}
	half.Each(func(u, i int) {
		if !d.R.Has(u, i) {
			t.Errorf("subsample invented entry (%d,%d)", u, i)
		}
	})
	full := SubsampleEntries(d.R, 1, rng.New(3))
	if !full.Equal(d.R) {
		t.Fatal("frac=1 subsample differs from original")
	}
}

func TestGeneratePlantedValidation(t *testing.T) {
	bad := []PlantedConfig{
		{Users: 0, Items: 10},
		{Users: 10, Items: 10, Clusters: 1, MinClusterUsers: 0, MaxClusterUsers: 5, MinClusterItems: 1, MaxClusterItems: 5, WithinProb: 0.5},
		{Users: 10, Items: 10, Clusters: 1, MinClusterUsers: 5, MaxClusterUsers: 20, MinClusterItems: 1, MaxClusterItems: 5, WithinProb: 0.5},
		{Users: 10, Items: 10, Clusters: 1, MinClusterUsers: 1, MaxClusterUsers: 5, MinClusterItems: 1, MaxClusterItems: 5, WithinProb: 0},
		{Users: 10, Items: 10, Clusters: 1, MinClusterUsers: 1, MaxClusterUsers: 5, MinClusterItems: 1, MaxClusterItems: 5, WithinProb: 0.5, NoisePositives: -1},
	}
	for i, cfg := range bad {
		if _, err := GeneratePlanted(cfg, rng.New(1)); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestGeneratePlantedDeterminism(t *testing.T) {
	cfg := PlantedConfig{
		Name: "t", Users: 50, Items: 40, Clusters: 4,
		MinClusterUsers: 5, MaxClusterUsers: 15,
		MinClusterItems: 5, MaxClusterItems: 10,
		WithinProb: 0.5, NoisePositives: 30, PopularitySkew: 1,
	}
	a, err := GeneratePlanted(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GeneratePlanted(cfg, rng.New(7))
	if !a.R.Equal(b.R) {
		t.Fatal("same seed gave different datasets")
	}
}

func TestGeneratePlantedStructure(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := PlantedConfig{
			Name: "q", Users: 60, Items: 50, Clusters: 3,
			MinClusterUsers: 5, MaxClusterUsers: 20,
			MinClusterItems: 5, MaxClusterItems: 15,
			WithinProb: 0.6, NoisePositives: 20, PopularitySkew: 0.5,
		}
		p, err := GeneratePlanted(cfg, rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		if p.R.Rows() != 60 || p.R.Cols() != 50 || len(p.Clusters) != 3 {
			return false
		}
		for _, cl := range p.Clusters {
			if len(cl.Users) < 5 || len(cl.Users) > 20 || len(cl.Items) < 5 || len(cl.Items) > 15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPresetsShape(t *testing.T) {
	ml := SyntheticMovieLens(1)
	if ml.Users() != 1200 || ml.Items() != 800 {
		t.Fatalf("movielens preset shape %dx%d", ml.Users(), ml.Items())
	}
	if d := ml.R.Density(); d < 0.01 || d > 0.08 {
		t.Errorf("movielens density %v outside plausible range", d)
	}

	cu := SyntheticCiteULike(1)
	if cu.Items() <= cu.Users() {
		t.Error("citeulike preset should be item-heavy")
	}
	if d := cu.R.Density(); d > 0.02 {
		t.Errorf("citeulike density %v too high", d)
	}

	b2b := SyntheticB2B(1)
	if b2b.Users() <= b2b.Items() {
		t.Error("b2b preset should be client-heavy")
	}
	if b2b.UserNames == nil || b2b.ItemNames == nil {
		t.Fatal("b2b preset must carry names")
	}
	if !strings.HasPrefix(b2b.UserName(0), "Client 1 (") {
		t.Errorf("client name = %q", b2b.UserName(0))
	}
	if !strings.Contains(b2b.ItemName(0), "Custom Cloud") {
		t.Errorf("first product name = %q", b2b.ItemName(0))
	}

	nf := SyntheticNetflix(1, 0.05)
	if nf.Users() <= 0 || nf.R.NNZ() == 0 {
		t.Fatal("netflix preset empty")
	}
}

func TestNetflixScaleMonotonic(t *testing.T) {
	small := SyntheticNetflix(1, 0.02)
	big := SyntheticNetflix(1, 0.1)
	if big.R.NNZ() <= small.R.NNZ() {
		t.Errorf("nnz not increasing with scale: %d vs %d", small.R.NNZ(), big.R.NNZ())
	}
	if big.Users() <= small.Users() {
		t.Error("users not increasing with scale")
	}
}

func TestNetflixScalePanics(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v did not panic", s)
				}
			}()
			SyntheticNetflix(1, s)
		}()
	}
}

func TestLoadRatingsMovieLensFormat(t *testing.T) {
	src := strings.NewReader(strings.Join([]string{
		"1::10::5::978300760",
		"1::11::2::978300761", // below threshold, dropped
		"2::10::3::978300762",
		"2::12::4::978300763",
		"",
	}, "\n"))
	d, err := LoadRatings(src, "ml-test", MovieLensOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Users() != 2 || d.Items() != 2 {
		t.Fatalf("shape %dx%d, want 2x2 (item 11 dropped entirely)", d.Users(), d.Items())
	}
	if d.R.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", d.R.NNZ())
	}
	if d.UserName(0) != "1" || d.ItemName(0) != "10" {
		t.Errorf("names: user0=%q item0=%q", d.UserName(0), d.ItemName(0))
	}
}

func TestLoadRatingsOneClass(t *testing.T) {
	src := strings.NewReader("u1,article9\nu2,article9\nu1,article7\n")
	d, err := LoadRatings(src, "cu-test", LoadOptions{Sep: ","})
	if err != nil {
		t.Fatal(err)
	}
	if d.Users() != 2 || d.Items() != 2 || d.R.NNZ() != 3 {
		t.Fatalf("got %s", d)
	}
}

func TestLoadRatingsErrors(t *testing.T) {
	if _, err := LoadRatings(strings.NewReader("a,b"), "x", LoadOptions{Sep: ""}); err == nil {
		t.Error("empty separator accepted")
	}
	if _, err := LoadRatings(strings.NewReader("onlyonefield"), "x", LoadOptions{Sep: ","}); err == nil {
		t.Error("short line accepted")
	}
	if _, err := LoadRatings(strings.NewReader("a,b"), "x", LoadOptions{Sep: ",", Threshold: 3}); err == nil {
		t.Error("missing rating accepted")
	}
	if _, err := LoadRatings(strings.NewReader("a,b,notanumber"), "x", LoadOptions{Sep: ",", Threshold: 3}); err == nil {
		t.Error("bad rating accepted")
	}
}

func TestDatasetNames(t *testing.T) {
	d := &Dataset{Name: "n", R: sparse.NewBuilder(2, 2).Build()}
	if d.UserName(1) != "User 1" || d.ItemName(0) != "Item 0" {
		t.Error("default names wrong")
	}
	d.UserNames = []string{"Alice", ""}
	if d.UserName(0) != "Alice" {
		t.Error("explicit name ignored")
	}
	if d.UserName(1) != "User 1" {
		t.Error("empty name should fall back")
	}
}

func TestDatasetString(t *testing.T) {
	toy := PaperToy()
	s := toy.String()
	if !strings.Contains(s, "paper-toy") || !strings.Contains(s, "12 users x 12 items") {
		t.Errorf("String() = %q", s)
	}
}
