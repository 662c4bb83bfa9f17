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

// engineFor opens the item range [lo, hi) of the fixture's served file
// behind a caching engine, swept-only or with the fast path.
func engineFor(t testing.TB, fx *ranktest.Fixture, lo, hi int, sweep bool, stats *rank.Stats) (*rank.Engine, *core.MappedModelRange) {
	t.Helper()
	rr, err := core.OpenMappedModelRange(fx.Path, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rr.Close() })
	var scorer rank.Scorer = rank.MappedScorer{MappedModelRange: rr}
	if sweep {
		scorer = rank.SweepOnly{Scorer: scorer}
	}
	return rank.NewEngine(scorer, rank.Config{CacheSize: 256, Stats: stats}), rr
}

// TestConformanceEngineTopM registers the engine twice over every file
// format, staged and not, over the whole catalogue and two partitions of
// it, across a rollout: ranking from the scorer's candidates, and over a
// scorer that can only sweep. Both are held to the one reference, so the
// two paths return the same lists. A partition is ranked the way a shard
// is — filters rebased, local ids made global, the stages applied once
// after — and Stats.Swept says which path ran: a model with bias, like a
// sweep-only scorer, is swept on every ranking, and none of the fixture's
// users sits beyond the crossover on a model without.
func TestConformanceEngineTopM(t *testing.T) {
	items := ranktest.New(t, ranktest.Variant{}).Train.Cols()
	for _, v := range ranktest.Variants {
		for _, staged := range []bool{false, true} {
			for _, sweep := range []bool{false, true} {
				for _, rg := range [][2]int{{0, -1}, {items / 4, 3 * items / 4}, {items / 4, -1}} {
					t.Run(fmt.Sprintf("%v_staged=%v_sweep=%v_[%d,%d)", v, staged, sweep, rg[0], rg[1]), func(t *testing.T) {
						fx := ranktest.New(t, v)
						stats := &rank.Stats{}
						e, rr := engineFor(t, fx, rg[0], rg[1], sweep, stats)
						whole := rr.Len() == items
						r := &ranktest.Ranker{Single: true, Cache: whole}
						if staged {
							r.Stages = fx.Stages
						}
						if !whole {
							r.Lo, r.Hi = rr.ItemLo(), rr.ItemHi()
						}
						r.Rank = func(t testing.TB, c *ranktest.Case) ranktest.Answer {
							filters := fx.Filters(t, c.Users[0], c)
							if whole {
								items, scores, cached := e.TopMStaged(c.Users[0], c.M, r.Stages, filters...)
								return ranktest.Answer{Status: 200, Lists: []ranktest.List{{Items: items, Scores: scores, Cached: cached}}}
							}
							for n, f := range filters {
								filters[n] = rank.OffsetRange(f, r.Lo, r.Hi)
							}
							local, scores, cached := e.TopM(c.Users[0], rank.StagesOverFetch(c.M, r.Stages), filters...)
							part := rank.Partial{Scores: scores}
							for _, it := range local {
								part.Items = append(part.Items, it+r.Lo)
							}
							items, scores := rank.MergeTopMStaged(c.M, r.Stages, part)
							return ranktest.Answer{Status: 200, Lists: []ranktest.List{{Items: items, Scores: scores, Cached: cached}}}
						}
						r.Roll = func(t testing.TB, flip bool) {
							if flip {
								e, _ = engineFor(t, fx, rg[0], rg[1], sweep, stats)
							}
						}
						ranktest.Conformance(t, fx, r)
						ranked, swept := stats.Ranked(), stats.Swept()
						want := int64(0)
						if sweep || v.Bias {
							want = ranked
						}
						if ranked == 0 || swept != want {
							t.Errorf("ranked %d, swept %d, want %d swept", ranked, swept, want)
						}
					})
				}
			}
		}
	}
}

// TestConformanceEngineTopMBatch registers the columnar entry point twice:
// under the fixture's keyed filters, where every list goes through the
// cache, and under the same filters rebased through OffsetRange over the
// whole catalogue — which keys nothing, so every list is copied into the
// columns straight from the scratch it was ranked in, as on a shard.
func TestConformanceEngineTopMBatch(t *testing.T) {
	for _, unkeyed := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			for _, staged := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d_staged=%v", workers, staged)
				if unkeyed {
					name += "_unkeyed"
				}
				t.Run(name, func(t *testing.T) {
					fx := ranktest.New(t, ranktest.Variant{F32: true})
					e, _ := engineFor(t, fx, 0, -1, false, nil)
					r := &ranktest.Ranker{Cache: !unkeyed}
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
							filters := fx.Filters(t, c.Users[i], c)
							if unkeyed {
								for n, f := range filters {
									filters[n] = rank.OffsetRange(f, 0, fx.Train.Cols())
								}
							}
							return filters, true
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
}

// TestConformanceEngineOwnsTrainRow registers engines that hold the
// training matrix (Config.Train) and are handed each case's own filters
// only, never a TrainRow: the single-user entry and TopMBatch at workers 1
// and 3, over every file format, staged and not, over the whole catalogue
// and the partitions [20,60) and [20,-1). A partition is ranked the way a
// shard ranks it — cacheless, the case's filters rebased, the row's window
// found by the engine from its scorer's ItemLo, local ids made global and
// the stages applied once after — and the whole catalogue through the
// cache, under fingerprints that no longer name the user's row.
func TestConformanceEngineOwnsTrainRow(t *testing.T) {
	items := ranktest.New(t, ranktest.Variant{}).Train.Cols()
	for _, v := range ranktest.Variants {
		for _, staged := range []bool{false, true} {
			for _, rg := range [][2]int{{0, -1}, {items / 4, 3 * items / 4}, {items / 4, -1}} {
				for _, workers := range []int{0, 1, 3} {
					entry := "TopMStaged"
					if workers > 0 {
						entry = fmt.Sprintf("TopMBatch_workers=%d", workers)
					}
					t.Run(fmt.Sprintf("%s_%v_staged=%v_[%d,%d)", entry, v, staged, rg[0], rg[1]), func(t *testing.T) {
						fx := ranktest.New(t, v)
						open := func(t testing.TB) (*rank.Engine, *core.MappedModelRange) {
							rr, err := core.OpenMappedModelRange(fx.Path, rg[0], rg[1])
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { _ = rr.Close() })
							cfg := rank.Config{CacheSize: -1, Train: fx.Train}
							if rr.Len() == items {
								cfg.CacheSize = 256
							}
							return rank.NewEngine(rank.MappedScorer{MappedModelRange: rr}, cfg), rr
						}
						e, rr := open(t)
						whole := rr.Len() == items
						r := &ranktest.Ranker{Single: workers == 0, Cache: whole}
						if staged {
							r.Stages = fx.Stages
						}
						if !whole {
							r.Lo, r.Hi = rr.ItemLo(), rr.ItemHi()
						}
						r.Rank = func(t testing.TB, c *ranktest.Case) ranktest.Answer {
							filters, m, stages := fx.RequestFilters(t, c), c.M, r.Stages
							if !whole {
								for n, f := range filters {
									filters[n] = rank.OffsetRange(f, r.Lo, r.Hi)
								}
								m, stages = rank.StagesOverFetch(c.M, r.Stages), nil
							}
							inRange := func(i int) bool { return c.Users[i] >= 0 && c.Users[i] < fx.Train.Rows() }
							var cols rank.BatchCols
							if workers == 0 {
								cols.Append(e.TopMStaged(c.Users[0], m, stages, filters...))
							} else {
								e.TopMBatch(c.Users, m, workers, stages, func(i int) ([]rank.Filter, bool) { return filters, inRange(i) }, &cols)
							}
							ans, off := ranktest.Answer{Status: 200}, 0
							for i, n := range cols.Counts {
								part := rank.Partial{Scores: cols.Scores[off : off+int(n)]}
								for _, it := range cols.Items[off : off+int(n)] {
									part.Items = append(part.Items, int(it)+r.Lo)
								}
								l := ranktest.List{Items: part.Items, Scores: part.Scores, Cached: cols.Cached[i]}
								if !whole {
									l.Items, l.Scores = rank.MergeTopMStaged(c.M, r.Stages, part)
								}
								if !inRange(i) {
									l.Err = "skipped by filtersFor"
								}
								off += int(n)
								ans.Lists = append(ans.Lists, l)
							}
							return ans
						}
						r.Roll = func(t testing.TB, flip bool) {
							if flip {
								e, _ = open(t)
							}
						}
						ranktest.Conformance(t, fx, r)
					})
				}
			}
		}
	}
}
