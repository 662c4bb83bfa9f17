// Command bench is the repository's benchmark: four whole-tier workloads
// driven in-process over loopback TCP against the same constructors the
// cmd/ mains call, with end-to-end metrics from untraced runs and a
// per-layer budget from a separate traced run. See README.md.
//
//	bash bench/run.sh                        # every workload, untraced then traced
//	bash bench/run.sh -workload serve_cold -seed 7 -seconds 12 -trace 0
//	bash bench/run.sh -aa                    # two sets on the same code, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
)

// benchFile mirrors BENCHMARK.json: the contract the output is held to.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchFile finds BENCHMARK.json in the working directory (the
// checkout root, where run.sh runs) or its parent (go test in bench/).
func loadBenchFile() (*benchFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// outcome is the contract's result line.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]outValue `json:"metrics"`
}

type outValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// conform selects the metrics BENCHMARK.json declares for this kind of
// run and holds each to its declaration: present, finite, same unit.
func conform(rep *report, bf *benchFile) outcome {
	want := bf.EndToEnd
	if rep.Traced {
		want = bf.PerLayer
	}
	out := outcome{Attempted: rep.Attempted, Metrics: make(map[string]outValue, len(want))}
	for _, d := range want {
		m, ok := rep.Res.byName[d.Name]
		switch {
		case !nameRE.MatchString(d.Name):
			rep.problem("declared metric name %q is malformed", d.Name)
		case !ok || len(m.Samples) == 0:
			rep.problem("declared metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			rep.problem("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.value()) || math.IsInf(m.value(), 0):
			rep.problem("metric %s is not finite", d.Name)
		default:
			out.Metrics[d.Name] = outValue{m.value(), m.Unit}
		}
	}
	out.Failed = rep.Failed
	out.Correct = rep.Failed == 0
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	return out
}

func machineFacts() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("goos=%s goarch=%s cpu=%q gomaxprocs=%d go=%s commit=%s",
		runtime.GOOS, runtime.GOARCH, cpu, runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

type cli struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	aa       bool
	jsonOnly bool
	out      string
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "workload to run (default: all of them)")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&c.trace, "trace", -1, "0 = end-to-end metrics, 1 = traced run with per-layer metrics (default: both)")
	flag.BoolVar(&c.quick, "quick", false, "tiny catalogue, one round: a smoke run, not a measurement")
	flag.BoolVar(&c.aa, "aa", false, "run two sets on the same code and compare them against the bounds")
	flag.BoolVar(&c.jsonOnly, "json", false, "print only the result lines")
	flag.StringVar(&c.out, "out", filepath.Join("bench", "out"), "directory for scratch files and trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := c.main(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func (c *cli) main(stdout io.Writer) (int, error) {
	bf, err := loadBenchFile()
	if err != nil {
		return 0, err
	}
	if c.seconds == 0 {
		c.seconds = float64(bf.RunSeconds)
	}
	var todo []spec
	if c.workload == "" {
		todo = specs
	} else {
		sp, ok := specByName(c.workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", c.workload)
		}
		todo = []spec{sp}
	}
	if c.aa {
		return c.runAA(stdout, bf, todo)
	}
	traces := []bool{false, true}
	if c.trace >= 0 {
		traces = []bool{c.trace == 1}
	}
	code := 0
	for _, sp := range todo {
		for _, traced := range traces {
			out, err := c.one(stdout, bf, sp, c.seed, traced)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", sp.Name, err)
			}
			if !out.Correct {
				code = 1
			}
		}
	}
	return code, nil
}

var runCount int

// one runs a workload once and prints its table and result line.
func (c *cli) one(stdout io.Writer, bf *benchFile, sp spec, seed uint64, traced bool) (outcome, error) {
	logw := io.Writer(stdout)
	if c.jsonOnly {
		logw = io.Discard
	}
	runCount++
	rep, err := run(sp, options{
		Seed: seed, Seconds: c.seconds, Traced: traced, Quick: c.quick,
		WorkDir: filepath.Join(c.out, fmt.Sprintf("work-%d-%d", os.Getpid(), runCount)),
		OutDir:  c.out, Log: logw,
	})
	if err != nil {
		return outcome{}, err
	}
	out := conform(rep, bf)
	fmt.Fprintf(logw, "# %s seed=%d seconds=%g trace=%v quick=%v %s\n", sp.Name, seed, c.seconds, traced, c.quick, machineFacts())
	rep.Res.printTable(logw)
	for _, p := range rep.Problems {
		fmt.Fprintln(logw, "PROBLEM:", p)
	}
	fmt.Fprintf(logw, "failed_share %g (%d of %d)\n", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return out, err
	}
	fmt.Fprintln(stdout, string(line))
	return out, nil
}

// runAA measures the same code twice and holds the difference of each
// end-to-end metric to its bound: what the benchmark cannot repeat it
// cannot gate.
func (c *cli) runAA(stdout io.Writer, bf *benchFile, todo []spec) (int, error) {
	code := 0
	for _, sp := range todo {
		var sets [2]outcome
		for i := range sets {
			out, err := c.one(io.Discard, bf, sp, c.seed, false)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", sp.Name, err)
			}
			if !out.Correct {
				code = 1
			}
			sets[i] = out
		}
		fmt.Fprintf(stdout, "# A/A %s seed=%d %s\n", sp.Name, c.seed, machineFacts())
		fmt.Fprintf(stdout, "%-20s %14s %14s %9s %7s\n", "metric", "first", "second", "worse_by", "bound")
		for _, d := range bf.EndToEnd {
			a, b := sets[0].Metrics[d.Name].Value, sets[1].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if math.Abs(worse) > d.Bound {
				verdict, code = "  BEYOND BOUND", 1
			}
			fmt.Fprintf(stdout, "%-20s %14.6g %14.6g %+9.4f %7.3f%s\n", d.Name, a, b, worse, d.Bound, verdict)
		}
	}
	return code, nil
}
