package rank_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/ranktest"
)

// The engine's registrations with the conformance suite — from an external
// test package, because ranktest imports rank. Each entry point ranks the
// saved file's scorer under the suite's own filter stack, so what is held
// to the reference is the engine: flattening, selection, stages, cache.

// engineFor opens the fixture's served file behind a caching engine.
func engineFor(t *testing.T, fx *ranktest.Fixture) *rank.Engine {
	t.Helper()
	mapped, err := core.OpenMappedModel(fx.Path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mapped.Close() })
	return rank.NewEngine(mapped, rank.Config{CacheSize: 256})
}

func TestConformanceEngineTopM(t *testing.T) {
	for _, v := range ranktest.Variants {
		for _, staged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v_staged=%v", v, staged), func(t *testing.T) {
				fx := ranktest.New(t, v)
				e, r := engineFor(t, fx), &ranktest.Ranker{Single: true, Cache: true}
				if staged {
					r.Stages = fx.Stages
				}
				r.Rank = func(t testing.TB, c *ranktest.Case) ranktest.Answer {
					items, scores, cached := e.TopMStaged(c.Users[0], c.M, r.Stages, fx.Filters(t, c.Users[0], c)...)
					return ranktest.Answer{Status: 200, Lists: []ranktest.List{{Items: items, Scores: scores, Cached: cached}}}
				}
				ranktest.Conformance(t, fx, r)
			})
		}
	}
}

func TestConformanceEngineTopMBatch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, staged := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d_staged=%v", workers, staged), func(t *testing.T) {
				fx := ranktest.New(t, ranktest.Variant{F32: true})
				e, r := engineFor(t, fx), &ranktest.Ranker{Cache: true}
				if staged {
					r.Stages = fx.Stages
				}
				r.Rank = func(t testing.TB, c *ranktest.Case) ranktest.Answer {
					var cols rank.BatchCols
					inRange := func(i int) bool { return c.Users[i] >= 0 && c.Users[i] < fx.Train.Rows() }
					e.TopMBatch(c.Users, c.M, workers, r.Stages, func(i int) ([]rank.Filter, bool) {
						if !inRange(i) {
							return nil, false
						}
						return fx.Filters(t, c.Users[i], c), true
					}, &cols)
					ans, off := ranktest.Answer{Status: 200}, 0
					for i, n := range cols.Counts {
						l := ranktest.List{Cached: cols.Cached[i], Scores: cols.Scores[off : off+int(n)]}
						for _, it := range cols.Items[off : off+int(n)] {
							l.Items = append(l.Items, int(it))
						}
						if !inRange(i) {
							l.Err = "skipped by filtersFor"
						}
						off += int(n)
						ans.Lists = append(ans.Lists, l)
					}
					return ans
				}
				ranktest.Conformance(t, fx, r)
			})
		}
	}
}
