package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ranktest"
)

// The serve tier's registrations with the conformance suite: every way a
// server ranks a user — full server, registry default path, tenant arm,
// an opened item range (snapshot_test.go), a set of shards merged — held
// to ranktest's reference over each codec it speaks, staged and not,
// across a reload. A test below is a registration: what it proves is in
// ranktest.Conformance.

// conformConfig is the configuration every implementation starts from:
// the fixture's file, exclusions and tags under the suite's limits.
func conformConfig(fx *ranktest.Fixture) Config {
	return Config{ModelPath: fx.Path, Train: fx.Train, ItemTags: fx.Tags, FoldIn: foldInCfg,
		EdgeConfig: EdgeConfig{MaxM: ranktest.MaxM, MaxBatch: ranktest.MaxBatch, MaxBodyBytes: ranktest.MaxBody}}
}

// stagedSpecs declares ranktest.Fixture.Stages the way a server is told.
var stagedSpecs = []StageSpec{
	{Type: "floor", Min: ranktest.Floor},
	{Type: "boost", Delta: ranktest.BoostDelta, Tags: []string{ranktest.BoostTag}, OverFetch: ranktest.BoostOverFetch},
}

// start builds a server with new and serves it until t ends.
func start(t testing.TB, new func(Config) (*Server, error), cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := new(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// reloadOn is the Roll of anything behind POST /v1/reload: nothing
// precedes the flip, and the flip is the reload body names.
func reloadOn(url string, body any) func(testing.TB, bool) {
	return func(t testing.TB, flip bool) {
		t.Helper()
		if !flip {
			return
		}
		if st := ranktest.PostJSON(t, url+"/v1/reload", body, nil); st != 200 {
			t.Fatalf("reload: status %d", st)
		}
	}
}

// A server's own refusal rows: a tenant nobody registered, and the filters
// it validates before it ranks.
var unknownTenant = ranktest.Refusal{Case: ranktest.Case{Name: "unknown tenant", Users: []int{1}, Tenant: "nobody"},
	Status: 404, Code: "unknown_tenant", Message: "nobody"}
var serverRows = []ranktest.Refusal{unknownTenant, ranktest.ExcludeOutOfRange, ranktest.UnknownTag}

// overlapName names a registration whose every request is sent overlap
// times at once; 0 sends each alone.
func overlapName(name string, overlap int) string {
	if overlap > 0 {
		name += fmt.Sprintf("_overlap=%d", overlap)
	}
	return name
}

// overlapConfig turns the cache off where requests overlap: every copy
// ranks.
func overlapConfig(cfg *Config, r *ranktest.Ranker, overlap int) {
	if overlap > 0 {
		cfg.CacheSize, r.Cache = -1, false
	}
}

// conformFull registers a full server behind one public codec, over every
// file format, unstaged and staged, each request sent alone or overlap
// times at once.
func conformFull(t *testing.T, codec ranktest.Codec, overlap int) {
	for _, v := range ranktest.Variants {
		for _, staged := range []bool{false, true} {
			t.Run(overlapName(fmt.Sprintf("%s_%v_staged=%v", codec.Name, v, staged), overlap), func(t *testing.T) {
				fx := ranktest.New(t, v)
				cfg := conformConfig(fx)
				r := ranktest.Ranker{Single: codec.Single, Cache: true, Who: "server", Refusals: serverRows}
				if staged {
					cfg.Stages, r.Stages = stagedSpecs, fx.Stages
				}
				overlapConfig(&cfg, &r, overlap)
				_, ts := start(t, NewFromFile, cfg)
				r.Rank, r.Roll = ranktest.Overlapped(codec.Client(ts.URL), overlap), reloadOn(ts.URL, nil)
				ranktest.Conformance(t, fx, &r)
			})
		}
	}
}

func TestRecommendMatchesInProcess(t *testing.T) { conformFull(t, ranktest.Recommend, 0) }
func TestBatchMatchesSingle(t *testing.T)        { conformFull(t, ranktest.BatchJSON, 0) }
func TestBatchBinaryMatchesJSON(t *testing.T)    { conformFull(t, ranktest.BatchFrame, 0) }

// TestOverlappingBatchesMatchSerial: a request ranks its users on the
// goroutine that decoded it, beside every other request in flight, and
// answers as it does alone, on either codec.
func TestOverlappingBatchesMatchSerial(t *testing.T) {
	conformFull(t, ranktest.BatchJSON, 3)
	conformFull(t, ranktest.BatchFrame, 3)
}

// conformRegistry registers a server with a registry mounted — one model
// file, once as the default model and once as registry model "main" behind
// the one-arm tenant "solo" — through its default path (tenant "") or
// through the tenant, over every public codec, each request sent alone or
// overlap times at once.
func conformRegistry(t *testing.T, tenant string, overlap int, after func(t *testing.T, codec ranktest.Codec, url string)) {
	for _, codec := range ranktest.Codecs {
		t.Run(overlapName(codec.Name, overlap), func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{})
			cfg := conformConfig(fx)
			cfg.Registry = &RegistryConfig{
				Models: map[string]ModelSpec{"main": {Path: fx.Path}},
				Tenants: map[string]TenantSpec{"solo": {Experiment: &ExperimentSpec{
					Name: "only", Arms: []ArmSpec{{Name: "a", Model: "main"}}}}},
			}
			r := ranktest.Ranker{Single: codec.Single, Cache: true, Who: "server", Refusals: serverRows}
			overlapConfig(&cfg, &r, overlap)
			_, ts := start(t, NewFromFile, cfg)
			url := ts.URL
			r.Rank, r.Roll = ranktest.Overlapped(codec.Client(url), overlap), reloadOn(url, nil)
			if tenant != "" {
				r.Rank, r.Roll = ranktest.WithTenant(r.Rank, tenant), reloadOn(url, ReloadRequest{Model: "main"})
				if !codec.Single {
					// A tenant's batch validates the filters against each user's
					// own arm: a bad filter fails slots, not the request.
					r.Refusals = []ranktest.Refusal{unknownTenant}
				}
			}
			ranktest.Conformance(t, fx, &r)
			after(t, codec, url)
		})
	}
}

// TestDefaultPathWireFormatUnchanged: with a registry mounted, a request
// naming no tenant is ranked as a registry-less server ranks it, and
// nothing of the platform shows in the answer.
func TestDefaultPathWireFormatUnchanged(t *testing.T) {
	conformRegistry(t, "", 0, func(t *testing.T, codec ranktest.Codec, url string) {
		if codec.Frame {
			return
		}
		body := `{"user":7,"m":5}`
		if !codec.Single {
			body = `{"users":[3,1,4],"m":5}`
		}
		_, _, got := ranktest.PostRaw(t, url+codec.Path, "application/json", []byte(body), nil)
		for _, key := range []string{"tenant", "experiment", "arm", `"model"`} {
			if strings.Contains(string(got), key) {
				t.Errorf("%s %s: default-path response leaks %s: %s", codec.Path, body, key, got)
			}
		}
	})
}

// TestBatchBinaryTenantMatchesJSON: a tenant's arm ranks like the model it
// serves on every codec, alone and beside overlapping requests, and the
// arm's binary-transport counter counts the users its frames served.
func TestBatchBinaryTenantMatchesJSON(t *testing.T) {
	for _, overlap := range []int{0, 3} {
		conformRegistry(t, "solo", overlap, func(t *testing.T, codec ranktest.Codec, url string) {
			var metrics map[string]any
			getJSON(t, url+"/metrics", &metrics)
			arm := metrics["tenants"].(map[string]any)["solo"].(map[string]any)["arms"].(map[string]any)["a"].(map[string]any)
			binary, requests := arm["binary_requests"].(float64), arm["requests"].(float64)
			if (binary > 0) != codec.Frame || binary > requests {
				t.Errorf("%s: binary_requests %v of %v requests, want them counted on frames only", codec.Name, binary, requests)
			}
		})
	}
}

// newShards serves the fixture as n item-range shards, each under cfg.
func newShards(t testing.TB, fx *ranktest.Fixture, n int, cfg Config) []*httptest.Server {
	t.Helper()
	return fx.Shards(t, n, func(lo, hi int) http.Handler {
		cfg.ModelPath, cfg.Train, cfg.ShardLo, cfg.ShardHi = fx.Path, fx.Train, lo, hi
		srv, err := NewShardFromFile(cfg)
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", lo, hi, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv.Handler()
	})
}

// shardRows are a shard's own refusal rows: the version pin its history
// does not hold, and — where a header can say so — a deadline budget
// already spent, which outranks everything the pipeline checks after it.
// (A stream's budget field is at least 1 ms or none; stream_test.go sheds
// one that runs out.)
func shardRows(codec ranktest.Codec) []ranktest.Refusal {
	expired := map[string]string{DeadlineHeader: "0"}
	rows := []ranktest.Refusal{
		ranktest.ExcludeOutOfRange, ranktest.UnknownTag,
		{Case: ranktest.Case{Name: "version pin miss", Users: []int{1}, Pin: 7}, Status: 409, Message: "not the requested 7"},
	}
	if !codec.Stream {
		rows = append(rows,
			ranktest.Refusal{Case: ranktest.Case{Name: "expired deadline", Users: []int{1}, M: 5, Header: expired}, Status: 504, Message: "deadline budget expired"},
			ranktest.Refusal{Case: ranktest.Case{Name: "expired deadline, bad m", Users: []int{1}, M: ranktest.MaxM + 1, Header: expired}, Status: 504, Message: "deadline budget expired"})
	}
	if codec.Frame {
		rows = append(rows,
			ranktest.Refusal{Case: ranktest.Case{Name: "one user of a frame out of range", Users: []int{1, ranktest.BadUser, 2}}, Status: 400, Message: "user 99999 out of range"},
			ranktest.Refusal{Case: ranktest.Case{Name: "tenant", Users: []int{1}, Tenant: "acme"}, Status: 400, Code: "bad_frame", Message: "shard frames carry no tenant"})
	}
	return rows
}

// conformShards registers sets of n shards, their partials merged by
// ranktest.ShardSet over one shard codec, across a rollout the set's
// version pin rides through on the shards' two-deep history, each request
// sent alone or overlap times at once.
func conformShards(t *testing.T, codec ranktest.Codec, overlap int, sizes ...int) {
	for _, n := range sizes {
		t.Run(overlapName(fmt.Sprintf("%s_shards=%d", codec.Name, n), overlap), func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{F32: n%2 == 1})
			cfg := conformConfig(fx)
			set := &ranktest.ShardSet{Codec: codec, Bases: ranktest.URLs(newShards(t, fx, n, cfg)), Pin: 1}
			ranktest.Conformance(t, fx, &ranktest.Ranker{Rank: ranktest.Overlapped(set.Rank, overlap), Roll: set.Roll,
				Single: codec.Single, RefusesBadUser: true, Who: "server", Refusals: shardRows(codec)})
		})
	}
}

func TestShardScatterGatherBitIdentical(t *testing.T) { conformShards(t, ranktest.ShardJSON, 0, 2, 3) }
func TestShardStreamMatchesPost(t *testing.T)         { conformShards(t, ranktest.ShardStream, 0, 2, 3) }

// TestShardFramesOverlapMidRollout: frames in flight together on a shard,
// before and after a reload, each rank every user against the ONE snapshot
// its version pin names.
func TestShardFramesOverlapMidRollout(t *testing.T) { conformShards(t, ranktest.ShardStream, 3, 2) }

// TestShardPartialCodecSeam: the whole catalogue behind the shard routes —
// the range [0, -1) — refuses over every codec alike, and counts each
// request shed for its deadline.
func TestShardPartialCodecSeam(t *testing.T) {
	for _, codec := range []ranktest.Codec{ranktest.ShardJSON, ranktest.ShardStream} {
		t.Run(codec.Name, func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{})
			cfg := conformConfig(fx)
			cfg.ShardLo, cfg.ShardHi = 0, -1
			srv, ts := start(t, NewShardFromFile, cfg)
			set := &ranktest.ShardSet{Codec: codec, Bases: []string{ts.URL}, Pin: 1}
			ranktest.Conformance(t, fx, &ranktest.Ranker{Rank: set.Rank,
				Single: codec.Single, RefusesBadUser: true, Who: "server", Refusals: shardRows(codec)})
			want := int64(0)
			for _, row := range shardRows(codec) {
				if row.Status == 504 {
					want++
				}
			}
			if got := srv.deadlineAborts.Value(); got != want {
				t.Errorf("deadline_aborts = %d, want %d (the expired rows)", got, want)
			}
		})
	}
}

// TestBatchCodecSeam: the rows that need a server the suite's fixture is
// not — one with no tag table — refused alike over every public codec.
func TestBatchCodecSeam(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	for _, codec := range ranktest.Codecs {
		ranktest.Refused(t, &ranktest.Ranker{Rank: codec.Client(ts.URL)}, unknownTenant, ranktest.Refusal{
			Case:   ranktest.Case{Name: codec.Name + ": tags without a table", Users: []int{1}, Deny: []string{"x"}},
			Status: 400, Message: "no item tag table configured"})
	}
}
