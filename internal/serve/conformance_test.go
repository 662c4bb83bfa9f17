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
		MaxM: ranktest.MaxM, MaxBatch: ranktest.MaxBatch, MaxBodyBytes: ranktest.MaxBody}
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

// conformFull registers a full server behind one public codec, over every
// file format, unstaged and staged, ranking batches on workers goroutines.
func conformFull(t *testing.T, codec ranktest.Codec, workers int) {
	for _, v := range ranktest.Variants {
		for _, staged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_%v_staged=%v_workers=%d", codec.Name, v, staged, workers), func(t *testing.T) {
				fx := ranktest.New(t, v)
				cfg := conformConfig(fx)
				cfg.Workers = workers
				r := ranktest.Ranker{Single: codec.Single, Cache: true, Who: "server", Refusals: serverRows}
				if staged {
					cfg.Stages, r.Stages = stagedSpecs, fx.Stages
				}
				_, ts := start(t, NewFromFile, cfg)
				r.Rank, r.Roll = codec.Client(ts.URL), reloadOn(ts.URL, nil)
				ranktest.Conformance(t, fx, &r)
			})
		}
	}
}

func TestRecommendMatchesInProcess(t *testing.T) { conformFull(t, ranktest.Recommend, 0) }
func TestBatchMatchesSingle(t *testing.T)        { conformFull(t, ranktest.BatchJSON, 1) }
func TestBatchBinaryMatchesJSON(t *testing.T)    { conformFull(t, ranktest.BatchFrame, 0) }

// TestBatchFanOutMatchesSerial: Config.Workers only schedules a batch, on
// either codec.
func TestBatchFanOutMatchesSerial(t *testing.T) {
	conformFull(t, ranktest.BatchJSON, 3)
	conformFull(t, ranktest.BatchFrame, 3)
}

// conformRegistry registers a server with a registry mounted — one model
// file, once as the default model and once as registry model "main" behind
// the one-arm tenant "solo" — through its default path (tenant "") or
// through the tenant, over every public codec.
func conformRegistry(t *testing.T, tenant string, workers int, after func(t *testing.T, codec ranktest.Codec, url string)) {
	for _, codec := range ranktest.Codecs {
		t.Run(fmt.Sprintf("%s_workers=%d", codec.Name, workers), func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{})
			cfg := conformConfig(fx)
			cfg.Workers = workers
			cfg.Registry = &RegistryConfig{
				Models: map[string]ModelSpec{"main": {Path: fx.Path}},
				Tenants: map[string]TenantSpec{"solo": {Experiment: &ExperimentSpec{
					Name: "only", Arms: []ArmSpec{{Name: "a", Model: "main"}}}}},
			}
			_, ts := start(t, NewFromFile, cfg)
			url := ts.URL
			r := ranktest.Ranker{Rank: codec.Client(url), Roll: reloadOn(url, nil),
				Single: codec.Single, Cache: true, Who: "server", Refusals: serverRows}
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
// serves on every codec, serial and fanned out, and the arm's
// binary-transport counter counts the users its frames served.
func TestBatchBinaryTenantMatchesJSON(t *testing.T) {
	for _, workers := range []int{0, 3} {
		conformRegistry(t, "solo", workers, func(t *testing.T, codec ranktest.Codec, url string) {
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
		return srv.Handler()
	})
}

// shardRows are a shard's own refusal rows: the version pin its history
// does not hold, and a deadline budget already spent — which outranks
// everything the pipeline checks after it.
func shardRows(codec ranktest.Codec) []ranktest.Refusal {
	expired := map[string]string{DeadlineHeader: "0"}
	rows := []ranktest.Refusal{
		ranktest.ExcludeOutOfRange, ranktest.UnknownTag,
		{Case: ranktest.Case{Name: "version pin miss", Users: []int{1}, Pin: 7}, Status: 409, Message: "not the requested 7"},
		{Case: ranktest.Case{Name: "expired deadline", Users: []int{1}, M: 5, Header: expired}, Status: 504, Message: "deadline budget expired"},
		{Case: ranktest.Case{Name: "expired deadline, bad m", Users: []int{1}, M: ranktest.MaxM + 1, Header: expired}, Status: 504, Message: "deadline budget expired"},
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
// version pin rides through on the shards' two-deep history.
func conformShards(t *testing.T, codec ranktest.Codec, workers int, sizes ...int) {
	for _, n := range sizes {
		t.Run(fmt.Sprintf("%s_shards=%d_workers=%d", codec.Name, n, workers), func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{F32: n%2 == 1})
			cfg := conformConfig(fx)
			cfg.Workers = workers
			set := &ranktest.ShardSet{Codec: codec, Bases: ranktest.URLs(newShards(t, fx, n, cfg)), Pin: 1}
			ranktest.Conformance(t, fx, &ranktest.Ranker{Rank: set.Rank, Roll: set.Roll,
				Single: codec.Single, RefusesBadUser: true, Who: "server", Refusals: shardRows(codec)})
		})
	}
}

func TestShardScatterGatherBitIdentical(t *testing.T) { conformShards(t, ranktest.ShardJSON, 0, 2, 3) }
func TestShardTopMBinaryMatchesJSON(t *testing.T)     { conformShards(t, ranktest.ShardFrame, 0, 2, 3) }

// TestShardFrameManyUsersMidRollout: a shard that fans its frames out
// ranks every user of one against the ONE snapshot the frame pins.
func TestShardFrameManyUsersMidRollout(t *testing.T) { conformShards(t, ranktest.ShardFrame, 3, 2) }

// TestShardPartialCodecSeam: the whole catalogue behind the shard routes —
// the range [0, -1) — refuses over both codecs alike, and counts each
// request shed for its deadline.
func TestShardPartialCodecSeam(t *testing.T) {
	for _, codec := range []ranktest.Codec{ranktest.ShardJSON, ranktest.ShardFrame} {
		t.Run(codec.Name, func(t *testing.T) {
			fx := ranktest.New(t, ranktest.Variant{})
			cfg := conformConfig(fx)
			cfg.ShardLo, cfg.ShardHi = 0, -1
			srv, ts := start(t, NewShardFromFile, cfg)
			set := &ranktest.ShardSet{Codec: codec, Bases: []string{ts.URL}, Pin: 1}
			ranktest.Conformance(t, fx, &ranktest.Ranker{Rank: set.Rank,
				Single: codec.Single, RefusesBadUser: true, Who: "server", Refusals: shardRows(codec)})
			if got := srv.metrics.deadlineAborts.Value(); got != 2 {
				t.Errorf("deadline_aborts = %d, want 2 (the two expired rows)", got)
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
