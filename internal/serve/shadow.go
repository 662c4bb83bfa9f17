package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rank"
)

// shadower mirrors a deterministic sample of one tenant's recommend
// traffic against a candidate model. The comparison runs on its own
// goroutine after the primary response is already computed — the
// response path pays one hash and one branch for a sampled user, and
// exactly one comparison against an integer threshold (no hash, no
// branch into the slow path) when sampling is off. Rank/score diffs are
// emitted as JSON lines to the configured shadow log.
type shadower struct {
	tenant string
	model  *namedModel
	sample float64
	// threshold gates sampling: a user is shadowed when the top 32 bits
	// of its sampling hash fall below it. sample 0 → threshold 0 → the
	// observe call returns after one integer compare; sample 1 → 1<<32 →
	// every user.
	threshold uint64
	// seed is the FNV state after hashing "shadow:"+tenant — a different
	// salt than armBucket, so the shadow sample is uncorrelated with arm
	// assignment.
	seed uint64
	// armStages maps arm name → the arm's stage specs rebuilt against
	// the candidate model (swapped on candidate reloads), so the shadow
	// re-ranks the way the candidate would actually serve.
	armStages atomic.Pointer[map[string][]rank.Stage]

	wg      sync.WaitGroup
	logMu   sync.Mutex
	log     io.Writer
	sampled atomic.Int64
	diffs   atomic.Int64
	errs    atomic.Int64
}

func newShadower(tenantName string, nm *namedModel, sample float64, logW io.Writer) *shadower {
	seed := uint64(fnvOffset64)
	for i := 0; i < len("shadow:"); i++ {
		seed ^= uint64("shadow:"[i])
		seed *= fnvPrime64
	}
	for i := 0; i < len(tenantName); i++ {
		seed ^= uint64(tenantName[i])
		seed *= fnvPrime64
	}
	return &shadower{
		tenant:    tenantName,
		model:     nm,
		sample:    sample,
		threshold: uint64(sample * float64(uint64(1)<<32)),
		seed:      seed,
		log:       logW,
	}
}

// sampledUser reports whether user falls in the shadow sample —
// deterministic, so a user is either always or never shadowed for a given
// sample rate, and allocation-free.
func (sh *shadower) sampledUser(user int) bool {
	if sh.threshold == 0 {
		return false
	}
	h := sh.seed
	u := uint64(user)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h>>32 < sh.threshold
}

// observe launches the shadow comparison for one served request when the
// user is sampled, over a copy of the primary list: pri is the request's
// pooled columns, reused as soon as the response is written.
func (sh *shadower) observe(armName, armModel string, armVersion uint64, user, m int,
	extra []rank.Filter, pri *rank.BatchCols) {
	if !sh.sampledUser(user) {
		return
	}
	sh.wg.Add(1)
	go sh.compare(armName, armModel, armVersion, user, m, extra, slices.Clone(pri.Items), slices.Clone(pri.Scores))
}

// shadowRecord is one JSON line of the shadow-diff log.
type shadowRecord struct {
	Tenant         string   `json:"tenant"`
	Arm            string   `json:"arm"`
	User           int      `json:"user"`
	M              int      `json:"m"`
	PrimaryModel   string   `json:"primary_model"`
	PrimaryVersion uint64   `json:"primary_version"`
	ShadowModel    string   `json:"shadow_model"`
	ShadowVersion  uint64   `json:"shadow_version"`
	RankDiffs      int      `json:"rank_diffs"`
	MaxScoreDiff   float64  `json:"max_score_diff"`
	PrimaryItems   []uint32 `json:"primary_items"`
	ShadowItems    []int    `json:"shadow_items"`
	Error          string   `json:"error,omitempty"`
}

func (sh *shadower) compare(armName, armModel string, armVersion uint64, user, m int,
	extra []rank.Filter, priItems []uint32, priScores []float64) {
	defer sh.wg.Done()
	// Shadow work must never take the serving process down: a panic out
	// of the candidate engine (a corrupt candidate file would not have
	// loaded, but belt and suspenders) is downgraded to an error counter.
	defer func() {
		if p := recover(); p != nil {
			sh.errs.Add(1)
		}
	}()
	sh.sampled.Add(1)
	sn := sh.model.base.Load()
	rec := shadowRecord{
		Tenant:         sh.tenant,
		Arm:            armName,
		User:           user,
		M:              m,
		PrimaryModel:   armModel,
		PrimaryVersion: armVersion,
		ShadowModel:    sh.model.name,
		ShadowVersion:  sn.version,
		PrimaryItems:   priItems,
	}
	if user < 0 || user >= sn.model.NumUsers() {
		rec.Error = fmt.Sprintf("user %d beyond the shadow model's %d users", user, sn.model.NumUsers())
		sh.errs.Add(1)
		sh.emit(rec)
		return
	}
	var stages []rank.Stage
	if m := sh.armStages.Load(); m != nil {
		stages = (*m)[armName]
	}
	items, scores, _ := sn.engine.TopMStaged(user, m, stages, extra...)
	rec.ShadowItems = items
	rec.RankDiffs, rec.MaxScoreDiff = diffLists(priItems, priScores, items, scores)
	if rec.RankDiffs > 0 {
		sh.diffs.Add(1)
	}
	sh.emit(rec)
}

// diffLists compares two ranked lists position-wise: how many positions
// disagree on the item (length mismatches count every unpaired position)
// and the largest absolute score difference over the shared prefix.
func diffLists(aItems []uint32, aScores []float64, bItems []int, bScores []float64) (rankDiffs int, maxScoreDiff float64) {
	n := len(aItems)
	if len(bItems) < n {
		n = len(bItems)
	}
	for i := 0; i < n; i++ {
		if int(aItems[i]) != bItems[i] {
			rankDiffs++
		}
		d := aScores[i] - bScores[i]
		if d < 0 {
			d = -d
		}
		if d > maxScoreDiff {
			maxScoreDiff = d
		}
	}
	rankDiffs += len(aItems) - n
	rankDiffs += len(bItems) - n
	return rankDiffs, maxScoreDiff
}

func (sh *shadower) emit(rec shadowRecord) {
	if sh.log == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		sh.errs.Add(1)
		return
	}
	line = append(line, '\n')
	sh.logMu.Lock()
	defer sh.logMu.Unlock()
	if _, err := sh.log.Write(line); err != nil {
		sh.errs.Add(1)
	}
}

func (sh *shadower) metricsTree() map[string]any {
	return map[string]any{
		"model":   sh.model.name,
		"sample":  sh.sample,
		"sampled": sh.sampled.Load(),
		"diffs":   sh.diffs.Load(),
		"errors":  sh.errs.Load(),
	}
}

// ShadowFlush blocks until every in-flight shadow comparison has
// finished — tests and drains call it so shadow log assertions never
// race the comparison goroutines. New requests arriving during the wait
// extend it.
func (s *Server) ShadowFlush() {
	if s.registry == nil {
		return
	}
	for _, name := range s.registry.tenantNames {
		if t := s.registry.tenants[name]; t.shadow != nil {
			t.shadow.wg.Wait()
		}
	}
}
