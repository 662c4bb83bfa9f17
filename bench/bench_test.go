package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestQuickProfile runs every workload, untraced and traced, on the tiny
// catalogue and holds the output to BENCHMARK.json: each declared metric
// printed exactly once with a finite value and its declared unit, nothing
// undeclared on the result line, no failed or incorrect call, and budget
// rows that add up to their totals. It asserts nothing about timings.
func TestQuickProfile(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			name := sp.Name + "/e2e"
			want := bf.EndToEnd
			if traced {
				name, want = sp.Name+"/traced", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				c := &cli{seconds: 1, quick: true, out: t.TempDir()}
				var buf bytes.Buffer
				out, err := c.one(&buf, bf, sp, 3, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", out.Correct, out.Failed, out.Attempted, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				printed := map[string]int{}
				for _, line := range lines {
					if f := strings.Fields(line); len(f) > 0 {
						printed[f[0]]++
					}
				}
				var last outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("result line carries %d metrics, BENCHMARK.json declares %d", len(last.Metrics), len(want))
				}
				for _, d := range want {
					if !nameRE.MatchString(d.Name) {
						t.Errorf("declared name %q is malformed", d.Name)
					}
					if printed[d.Name] != 1 {
						t.Errorf("%s printed %d times in the table", d.Name, printed[d.Name])
					}
					v, ok := last.Metrics[d.Name]
					if !ok {
						t.Errorf("%s missing from the result line", d.Name)
						continue
					}
					if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v %q, declared unit %q", d.Name, v.Value, v.Unit, d.Unit)
					}
				}
				if traced {
					m := func(n string) float64 { return last.Metrics[n].Value }
					adds(t, "budget", m("budget.total_us"),
						m("budget.hop_us"), m("budget.front_us"), m("budget.scatter_us"), m("budget.shard_us"),
						m("budget.rank_us"), m("budget.core_us"), m("budget.unattributed_us"))
					adds(t, "trainer", m("trainer.cycle_ms"),
						m("trainer.replay_ms"), m("trainer.train_ms"), m("trainer.save_ms"),
						m("trainer.rollout_ms"), m("trainer.warm_ms"), m("trainer.unattributed_ms"))
				}
			})
		}
	}
}

func adds(t *testing.T, what string, total float64, rows ...float64) {
	t.Helper()
	sum := 0.0
	for _, r := range rows {
		sum += r
	}
	if math.Abs(sum-total) > 1e-6*math.Max(1, math.Abs(total)) {
		t.Errorf("%s rows add up to %v, total is %v", what, sum, total)
	}
}

// TestStreamsRepeat: the same seed must generate byte-identical request
// bodies, JSON and frames alike; another seed must not.
func TestStreamsRepeat(t *testing.T) {
	gen := func(seed uint64) []byte {
		var out []byte
		for _, zipf := range []bool{false, true} {
			st := newStream(seed, 1, 500, 900, zipf, true)
			for i := 0; i < 200; i++ {
				out = st.next(1).jsonBody(out, false)
				c := st.next(batchUsers)
				out = c.jsonBody(out, true)
				var err error
				if out, err = c.frameBody(out); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	a, b := gen(11), gen(11)
	if !bytes.Equal(a, b) {
		t.Error("two generations from one seed differ")
	}
	if bytes.Equal(a, gen(12)) {
		t.Error("different seeds generated the same stream")
	}
}

// TestConformCatchesGaps: a declared metric that was never measured, or
// measured in another unit, fails the run instead of vanishing.
func TestConformCatchesGaps(t *testing.T) {
	bf := &benchFile{EndToEnd: []declared{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}, {Name: "c", Unit: "s"}}}
	rep := &report{Res: newResults(), Attempted: 5}
	rep.Res.add("a", "ms", 1.5)
	rep.Res.add("b", "ms", 2)
	out := conform(rep, bf)
	if out.Correct || out.Failed != 2 || len(out.Metrics) != 1 {
		t.Errorf("conform = %+v, want 2 failures and only metric a", out)
	}
}
