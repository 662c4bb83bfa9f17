package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/rank"
)

// This file is the multi-model half of the serving layer: a registry of
// named mmapped models (cheap by construction — pages fault in on first
// touch), tenants that resolve requests tenant → experiment → arm via a
// deterministic user hash, per-arm rank engines and stage configs, and
// per-tenant feed partitions for ingest. The default (tenant-less)
// request path never touches any of it.

// StageSpec is the declarative form of one re-rank stage, as it appears
// in registry arm configs and the -stages CLI flag. Type selects the
// stage; the other fields are per-type parameters:
//
//	{"type": "floor", "min": 0.05}
//	{"type": "boost", "delta": 0.1, "tags": ["kids"], "over_fetch": 2}
//	{"type": "diversify", "lambda": 0.7, "factor": 4}
type StageSpec struct {
	Type string `json:"type"`
	// Min is the floor stage's score threshold.
	Min float64 `json:"min,omitempty"`
	// Delta and Tags parameterize the boost stage; OverFetch (default 1)
	// widens the head the boost sees so boosted items just below the cut
	// can surface.
	Delta     float64  `json:"delta,omitempty"`
	Tags      []string `json:"tags,omitempty"`
	OverFetch int      `json:"over_fetch,omitempty"`
	// Lambda and Factor parameterize the diversify stage (MMR trade-off
	// and over-fetch multiple; Factor defaults to 4).
	Lambda float64 `json:"lambda,omitempty"`
	Factor int     `json:"factor,omitempty"`
}

// ParseStageSpecs parses the compact comma-separated stage spec of the
// serving CLIs into the declarative form:
//
//	floor=MIN                   drop items scoring below MIN
//	boost=DELTA:tag1+tag2       add DELTA to items carrying any tag
//	diversify=LAMBDA:FACTOR     MMR re-order over FACTOR×m candidates
//
// Stages apply in spec order. An empty spec is no stages.
func ParseStageSpecs(spec string) ([]StageSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var specs []StageSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, args, _ := strings.Cut(part, "=")
		switch name {
		case "floor":
			min, err := strconv.ParseFloat(args, 64)
			if err != nil {
				return nil, fmt.Errorf("stage %q: floor needs floor=MIN: %v", part, err)
			}
			specs = append(specs, StageSpec{Type: "floor", Min: min})
		case "boost":
			deltaStr, tagList, ok := strings.Cut(args, ":")
			if !ok || tagList == "" {
				return nil, fmt.Errorf("stage %q: boost needs boost=DELTA:tag1+tag2", part)
			}
			delta, err := strconv.ParseFloat(deltaStr, 64)
			if err != nil {
				return nil, fmt.Errorf("stage %q: bad boost delta: %v", part, err)
			}
			specs = append(specs, StageSpec{Type: "boost", Delta: delta, Tags: strings.Split(tagList, "+")})
		case "diversify":
			lambdaStr, factorStr, ok := strings.Cut(args, ":")
			if !ok {
				return nil, fmt.Errorf("stage %q: diversify needs diversify=LAMBDA:FACTOR", part)
			}
			lambda, err := strconv.ParseFloat(lambdaStr, 64)
			if err != nil {
				return nil, fmt.Errorf("stage %q: bad diversify lambda: %v", part, err)
			}
			factor, err := strconv.Atoi(factorStr)
			if err != nil {
				return nil, fmt.Errorf("stage %q: bad diversify factor: %v", part, err)
			}
			specs = append(specs, StageSpec{Type: "diversify", Lambda: lambda, Factor: factor})
		default:
			return nil, fmt.Errorf("stage %q: unknown stage (want floor=, boost= or diversify=)", part)
		}
	}
	return specs, nil
}

// BuildStages materializes stage specs against a concrete model: boost
// stages bind to the item tag table, diversify stages to the model's item
// affiliation vectors (the paper's co-cluster overlap — Section IV-C —
// as a similarity kernel). Specs are rebuilt per model (re)load so a
// rolled-out model always diversifies over its own factors.
func BuildStages(specs []StageSpec, tags *rank.TagTable, model *core.Model) ([]rank.Stage, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	stages := make([]rank.Stage, 0, len(specs))
	for _, sp := range specs {
		switch sp.Type {
		case "floor":
			stages = append(stages, rank.ScoreFloor(sp.Min))
		case "boost":
			if tags == nil {
				return nil, fmt.Errorf("boost stage needs an item tag table (start the server with -items-meta)")
			}
			st, err := tags.Boost(sp.Delta, sp.OverFetch, sp.Tags...)
			if err != nil {
				return nil, err
			}
			stages = append(stages, st)
		case "diversify":
			if model == nil {
				return nil, fmt.Errorf("diversify stage needs a model for item vectors")
			}
			factor := sp.Factor
			if factor == 0 {
				factor = 4
			}
			st, err := rank.Diversify(sp.Lambda, factor, modelVectors{m: model})
			if err != nil {
				return nil, err
			}
			stages = append(stages, st)
		default:
			return nil, fmt.Errorf("unknown stage type %q (want floor, boost or diversify)", sp.Type)
		}
	}
	return stages, nil
}

// modelVectors adapts a model's item factors to the Diversify stage's
// vector interface. For OCuLaR the coordinates are non-negative co-cluster
// affiliations, so cosine overlap is exactly the co-cluster overlap
// PairContributions itemizes.
type modelVectors struct{ m *core.Model }

func (v modelVectors) ItemVector(i int) []float64 { return v.m.ItemFactor(i) }

// RegistryConfig is the multi-model platform configuration: named model
// files plus the tenants served over them. On disk it is one JSON object
// (ocular-serve -registry):
//
//	{
//	  "models": {
//	    "champion":  {"path": "models/champion.bin"},
//	    "candidate": {"path": "models/candidate.bin"}
//	  },
//	  "tenants": {
//	    "acme": {
//	      "experiment": {
//	        "name": "ranker-v2",
//	        "arms": [
//	          {"name": "control",   "model": "champion",  "weight": 9},
//	          {"name": "treatment", "model": "candidate", "weight": 1,
//	           "stages": [{"type": "diversify", "lambda": 0.7, "factor": 4}]}
//	        ]
//	      },
//	      "shadow": {"model": "candidate", "sample": 0.05},
//	      "feed_dir": "feeds/acme"
//	    }
//	  }
//	}
type RegistryConfig struct {
	Models  map[string]ModelSpec  `json:"models"`
	Tenants map[string]TenantSpec `json:"tenants"`
}

// ModelSpec names one serialized model file hosted by the registry.
type ModelSpec struct {
	Path string `json:"path"`
}

// TenantSpec configures one tenant: the experiment its query traffic
// resolves through, an optional shadow comparison, and an optional
// private feed partition for its ingest events.
type TenantSpec struct {
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	Shadow     *ShadowSpec     `json:"shadow,omitempty"`
	// FeedDir, when set, partitions this tenant's /v1/ingest events into
	// their own interaction log so the trainer replays exactly the
	// tenant's feed. The server opens (and closes) the log itself.
	FeedDir string `json:"feed_dir,omitempty"`
}

// ExperimentSpec is a named A/B experiment over weighted arms. The name
// seeds the user→arm hash: renaming the experiment reshuffles users,
// changing anything else (weights aside) does not.
type ExperimentSpec struct {
	Name string    `json:"name"`
	Arms []ArmSpec `json:"arms"`
}

// ArmSpec is one experiment arm: a named model plus the arm's own re-rank
// stage config. Weight 0 means 1.
type ArmSpec struct {
	Name   string      `json:"name"`
	Model  string      `json:"model"`
	Weight int         `json:"weight,omitempty"`
	Stages []StageSpec `json:"stages,omitempty"`
}

// ShadowSpec mirrors a sample of the tenant's live traffic against a
// candidate model: each sampled request is re-ranked against the shadow
// model off the response path and the rank/score diff logged. Sample is
// the fraction of users shadowed, in [0, 1].
type ShadowSpec struct {
	Model  string  `json:"model"`
	Sample float64 `json:"sample"`
}

// LoadRegistryFile reads and validates a RegistryConfig from a JSON file.
// Model paths are resolved relative to the process working directory,
// like every other path flag.
func LoadRegistryFile(path string) (*RegistryConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rc RegistryConfig
	if err := dec.Decode(&rc); err != nil {
		return nil, fmt.Errorf("registry %s: %v", path, err)
	}
	return &rc, nil
}

// registry is the runtime form of a RegistryConfig: loaded models and
// resolved tenants. The maps are immutable after construction; the
// mutable serving state lives behind the per-model and per-arm snapshot
// pointers, swapped atomically by named reloads.
type registry struct {
	models      map[string]*namedModel
	modelNames  []string // sorted, for deterministic iteration
	tenants     map[string]*tenant
	tenantNames []string
}

// namedModel is one registry entry: a model file, its reload-cumulative
// rank stats, and the arms and shadows serving from it (rebuilt when the
// model reloads).
type namedModel struct {
	name  string
	path  string
	stats *rank.Stats
	// base is the stage-less snapshot of the model — shadow scoring and
	// health reporting go through it.
	base    atomic.Pointer[snapshot]
	arms    []*arm
	shadows []*shadower
}

// tenant is one resolved TenantSpec.
type tenant struct {
	name   string
	exp    *experiment
	shadow *shadower
	feed   *feed.Log
}

// experiment routes a tenant's users across weighted arms.
type experiment struct {
	name  string
	arms  []*arm
	total uint64 // sum of arm weights
}

// arm is one experiment arm at runtime: its own engine (own cache, own
// stats — the per-arm metrics labels), its stage config, and the [_, hi)
// cumulative-weight bucket the user hash lands in.
type arm struct {
	name     string
	expName  string
	tenant   string
	model    *namedModel
	weight   uint64
	hi       uint64 // cumulative weight bound (exclusive)
	specs    []StageSpec
	stats    *rank.Stats
	requests atomic.Int64
	errors   atomic.Int64
	// binary counts the subset of requests that arrived over the binary
	// columnar transport (/v2/batch), so the JSON/binary split is
	// observable per arm, not just per server.
	binary atomic.Int64
	snap   atomic.Pointer[snapshot]
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// armBucket maps (experiment, user) onto [0, total) — FNV-1a over the
// experiment name then the user id's eight little-endian bytes. The
// function is part of the platform's compatibility surface: pinned test
// vectors guard it, so redeploys and arm re-weights never reshuffle which
// hash bucket a user occupies (re-weighting moves bucket boundaries, the
// minimal possible churn).
func armBucket(experiment string, user int, total uint64) uint64 {
	return fnvUser(fnvString(fnvOffset64, experiment), user) % total
}

// fnvString continues the FNV-1a state h over the bytes of s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvUser continues the FNV-1a state h over user's eight little-endian
// bytes.
func fnvUser(h uint64, user int) uint64 {
	u := uint64(user)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

func (e *experiment) pick(user int) *arm {
	b := armBucket(e.name, user, e.total)
	for _, a := range e.arms {
		if b < a.hi {
			return a
		}
	}
	return e.arms[len(e.arms)-1]
}

// unknownTenantError maps to the JSON 404 {code:"unknown_tenant"}: a
// request naming an unregistered tenant (or a tenant with no experiment
// to serve it) must fail loudly, never fall through to the default model.
type unknownTenantError struct{ tenant string }

func (e unknownTenantError) Error() string {
	return fmt.Sprintf("unknown tenant %q", e.tenant)
}

// route is one request's serving state after tenant resolution: the
// snapshot to rank against (which carries the stage config it was built
// with) plus the arm and tenant for labeling, metrics and shadowing —
// both nil on the default path.
type route struct {
	sn     *snapshot
	arm    *arm
	tenant *tenant
}

// resolve routes a request: the empty tenant is the default path
// (today's single-model behavior, bit for bit), anything else resolves
// tenant → experiment → arm through the registry. The hot path is
// allocation-free — BenchmarkRegistryResolve pins that.
func (s *Server) resolve(tenantName string, user int) (route, error) {
	if tenantName == "" {
		return route{sn: s.snap.Load()}, nil
	}
	if s.registry == nil {
		return route{}, unknownTenantError{tenant: tenantName}
	}
	t := s.registry.tenants[tenantName]
	if t == nil || t.exp == nil {
		return route{}, unknownTenantError{tenant: tenantName}
	}
	a := t.exp.pick(user)
	return route{sn: a.snap.Load(), arm: a, tenant: t}, nil
}

// buildRegistry resolves Config.Registry into runtime state and loads
// every named model. Called once from newServer (single-threaded); any
// error aborts construction, closing whatever feed partitions were
// already opened.
func (s *Server) buildRegistry() (err error) {
	rc := s.cfg.Registry
	if len(rc.Models) == 0 {
		return fmt.Errorf("serve: registry has no models")
	}
	reg := &registry{
		models:  make(map[string]*namedModel, len(rc.Models)),
		tenants: make(map[string]*tenant, len(rc.Tenants)),
	}
	defer func() {
		if err != nil {
			for _, t := range reg.tenants {
				if t.feed != nil {
					t.feed.Close()
				}
			}
		}
	}()
	for name, spec := range rc.Models {
		if name == "" || spec.Path == "" {
			return fmt.Errorf("serve: registry model %q needs a non-empty name and path", name)
		}
		reg.models[name] = &namedModel{name: name, path: spec.Path, stats: &rank.Stats{}}
		reg.modelNames = append(reg.modelNames, name)
	}
	sort.Strings(reg.modelNames)
	// Every tenant's shadow shares one slot per request being compared:
	// sixteen per core. With a fast log, fewer shed users under load the
	// CPU keeps up with: at sample 1 on a 6,000 × 12,000 catalogue (2
	// cores), 16 clients sending 32-user batches at about a third of
	// capacity shed a quarter of their users at four per core, none at 16.
	slots := make(chan struct{}, 16*runtime.GOMAXPROCS(0))
	for tname, tspec := range rc.Tenants {
		if tname == "" {
			return fmt.Errorf("serve: registry tenant with empty name")
		}
		t := &tenant{name: tname}
		if tspec.Experiment != nil {
			exp := tspec.Experiment
			if exp.Name == "" {
				return fmt.Errorf("serve: tenant %q: experiment needs a name (it seeds the user→arm hash)", tname)
			}
			if len(exp.Arms) == 0 {
				return fmt.Errorf("serve: tenant %q: experiment %q has no arms", tname, exp.Name)
			}
			e := &experiment{name: exp.Name}
			for _, aspec := range exp.Arms {
				if aspec.Name == "" {
					return fmt.Errorf("serve: tenant %q: arm with empty name", tname)
				}
				if aspec.Weight < 0 {
					return fmt.Errorf("serve: tenant %q arm %q: negative weight %d", tname, aspec.Name, aspec.Weight)
				}
				w := uint64(aspec.Weight)
				if w == 0 {
					w = 1
				}
				nm := reg.models[aspec.Model]
				if nm == nil {
					return fmt.Errorf("serve: tenant %q arm %q references unknown model %q", tname, aspec.Name, aspec.Model)
				}
				e.total += w
				a := &arm{
					name:    aspec.Name,
					expName: exp.Name,
					tenant:  tname,
					model:   nm,
					weight:  w,
					hi:      e.total,
					specs:   aspec.Stages,
					stats:   &rank.Stats{},
				}
				nm.arms = append(nm.arms, a)
				e.arms = append(e.arms, a)
			}
			t.exp = e
		}
		if tspec.Shadow != nil {
			sh := tspec.Shadow
			if t.exp == nil {
				return fmt.Errorf("serve: tenant %q: shadow needs an experiment (shadow mirrors arm traffic)", tname)
			}
			if sh.Sample < 0 || sh.Sample > 1 {
				return fmt.Errorf("serve: tenant %q: shadow sample must be in [0,1], got %v", tname, sh.Sample)
			}
			nm := reg.models[sh.Model]
			if nm == nil {
				return fmt.Errorf("serve: tenant %q: shadow references unknown model %q", tname, sh.Model)
			}
			shadow := newShadower(tname, nm, sh.Sample, slots, s.cfg.ShadowLog)
			nm.shadows = append(nm.shadows, shadow)
			t.shadow = shadow
		}
		if tspec.FeedDir != "" {
			fl, ferr := feed.Open(tspec.FeedDir, feed.Options{})
			if ferr != nil {
				return fmt.Errorf("serve: tenant %q feed: %w", tname, ferr)
			}
			t.feed = fl
		}
		reg.tenants[tname] = t
		reg.tenantNames = append(reg.tenantNames, tname)
	}
	sort.Strings(reg.tenantNames)
	s.registry = reg
	for _, name := range reg.modelNames {
		if _, err := s.loadNamedLocked(reg.models[name]); err != nil {
			return err
		}
	}
	for _, tname := range reg.tenantNames {
		if t := reg.tenants[tname]; t.shadow != nil {
			if err := s.rebuildShadowStages(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadNamedLocked (re)opens a named model file and rebuilds the serving
// state of every arm bound to it: the base snapshot through Server.open,
// each arm a copy of it with the arm's own engine (own cache, own stats)
// and stage list — one open, so every arm serves the same mapping. All
// validation and stage building happens before any pointer is stored, so
// a failed reload leaves every arm on the previous version — never a mix.
// Caller holds reloadMu (or is the single-threaded constructor).
func (s *Server) loadNamedLocked(nm *namedModel) (*snapshot, error) {
	base, err := s.open(nm.path, 0, -1, nm.base.Load(), nm.stats, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: registry model %q: %w", nm.name, err)
	}
	arms := make([]*snapshot, len(nm.arms))
	for i, a := range nm.arms {
		arm := *base
		if arm.stages, err = BuildStages(a.specs, s.cfg.ItemTags, base.model); err != nil {
			return nil, fmt.Errorf("serve: tenant %q arm %q: %w", a.tenant, a.name, err)
		}
		arm.engine = s.newEngine(base.rng, base.train, a.stats)
		arms[i] = &arm
	}
	nm.base.Store(base)
	for i, a := range nm.arms {
		a.snap.Store(arms[i])
	}
	return base, nil
}

// rebuildShadowStages rebuilds the tenant's shadow-side stage lists
// against the current candidate model, so a shadow comparison re-ranks
// with the same stage specs as the arm that served the request — but
// bound to the candidate's own item vectors. Caller holds reloadMu (or is
// the constructor).
func (s *Server) rebuildShadowStages(t *tenant) error {
	base := t.shadow.model.base.Load()
	m := make(map[string][]rank.Stage, len(t.exp.arms))
	for _, a := range t.exp.arms {
		st, err := BuildStages(a.specs, s.cfg.ItemTags, base.model)
		if err != nil {
			return fmt.Errorf("serve: tenant %q shadow, arm %q stages: %w", t.name, a.name, err)
		}
		m[a.name] = st
	}
	t.shadow.armStages.Store(&m)
	return nil
}

// unknownModelError maps to the JSON 404 {code:"unknown_model"} of a
// named reload.
type unknownModelError struct{ model string }

func (e unknownModelError) Error() string {
	return fmt.Sprintf("unknown registry model %q", e.model)
}

// reloadNamed re-maps one named registry model from its file and swaps it
// into every arm and shadow serving from it — the registry-aware form of
// reload, behind POST /v1/reload {"model": name}. It returns the base
// snapshot it installed (each named model has its own version sequence,
// independent of the default model's). The empty name is the default
// model, as in the request: reload.
func (s *Server) reloadNamed(name string) (*snapshot, error) {
	if name == "" {
		return s.reload()
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.registry == nil || s.registry.models[name] == nil {
		return nil, unknownModelError{model: name}
	}
	nm := s.registry.models[name]
	base, err := s.loadNamedLocked(nm)
	if err != nil {
		return nil, err
	}
	for _, tname := range s.registry.tenantNames {
		t := s.registry.tenants[tname]
		if t.shadow != nil && t.shadow.model == nm {
			if err := s.rebuildShadowStages(t); err != nil {
				return nil, err
			}
		}
	}
	return base, nil
}

// Close releases resources the server opened itself: a shard's open frame
// streams (ended; they outlive the HTTP server's shutdown, so call Close
// after it) and the registry's per-tenant feed partitions (synced, then
// closed). The Config.Feed log belongs to the caller, as before. Safe to
// call on servers without a registry.
func (s *Server) Close() error {
	s.streams.Close()
	if s.registry == nil {
		return nil
	}
	var first error
	for _, name := range s.registry.tenantNames {
		t := s.registry.tenants[name]
		if t.feed == nil {
			continue
		}
		if err := t.feed.Sync(); err != nil && first == nil {
			first = err
		}
		if err := t.feed.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// health reports the registry's per-model and per-tenant state for
// /healthz.
func (r *registry) health() (models map[string]ModelHealth, tenants map[string]TenantHealth) {
	models = make(map[string]ModelHealth, len(r.models))
	tenants = make(map[string]TenantHealth, len(r.tenants))
	for name, nm := range r.models {
		sn := nm.base.Load()
		models[name] = ModelHealth{
			Model:        sn.shape(),
			ModelVersion: sn.version,
			LoadedAt:     sn.loadedAt.UTC().Format(time.RFC3339),
		}
	}
	for name, t := range r.tenants {
		var th TenantHealth
		if t.exp != nil {
			th.Experiment = t.exp.name
			for _, a := range t.exp.arms {
				th.Arms = append(th.Arms, ArmHealth{
					Arm:          a.name,
					Model:        a.model.name,
					ModelVersion: a.snap.Load().version,
					Weight:       a.weight,
				})
			}
		}
		if t.shadow != nil {
			th.ShadowModel, th.ShadowSample = t.shadow.model.name, &t.shadow.sample
		}
		if t.feed != nil {
			n := t.feed.Count()
			th.FeedPositives = &n
		}
		tenants[name] = th
	}
	return models, tenants
}

// metricsTree reports per-arm serving counters for /metrics: requests,
// errors and the arm's own cache stats — the per-arm labels an A/B
// readout is cut by. Tenants and arms are rows under the labels tenant
// and arm, so two names the exposition's charset would fold together
// (acme-eu, acme_eu) stay two series.
func (r *registry) metricsTree() obs.Labeled {
	tenants := make(map[string]map[string]any, len(r.tenants))
	for _, name := range r.tenantNames {
		t := r.tenants[name]
		tt := map[string]any{}
		if t.exp != nil {
			arms := make(map[string]map[string]any, len(t.exp.arms))
			for _, a := range t.exp.arms {
				sn := a.snap.Load()
				arms[a.name] = map[string]any{
					"model":         a.model.name,
					"model_version": sn.version,
					"requests":      a.requests.Load(),
					"errors":        a.errors.Load(),
					// Subset of requests served over the binary transport.
					"binary_requests": a.binary.Load(),
					"cache": map[string]any{
						"hits":      a.stats.Hits(),
						"misses":    a.stats.Misses(),
						"coalesced": a.stats.Coalesced(),
						"ranked":    a.stats.Ranked(),
						"swept":     a.stats.Swept(),
						"entries":   sn.engine.CacheLen(),
					},
				}
			}
			tt["experiment"] = t.exp.name
			tt["arms"] = obs.Labeled{Label: "arm", Rows: arms}
		}
		if t.shadow != nil {
			tt["shadow"] = t.shadow.metricsTree()
		}
		tenants[name] = tt
	}
	return obs.Labeled{Label: "tenant", Rows: tenants}
}
