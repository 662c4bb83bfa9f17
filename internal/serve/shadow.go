package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// emitted as JSON lines to the configured shadow log. One goroutine
// compares a request's sampled users in turn, and it holds one of the
// process's shadow slots (shared by every tenant) while it runs; a
// request finding them all taken sheds its sampled users, so a slow log
// parks at most one goroutine per slot, never one per user.
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

	// slots holds one token per request whose comparisons are in flight.
	slots   chan struct{}
	wg      sync.WaitGroup
	logMu   sync.Mutex
	log     io.Writer
	sampled atomic.Int64
	shed    atomic.Int64
	diffs   atomic.Int64
	errs    atomic.Int64
}

func newShadower(tenantName string, nm *namedModel, sample float64, slots chan struct{}, logW io.Writer) *shadower {
	return &shadower{
		tenant:    tenantName,
		model:     nm,
		sample:    sample,
		threshold: uint64(sample * float64(uint64(1)<<32)),
		seed:      fnvString(fnvOffset64, "shadow:"+tenantName),
		slots:     slots,
		log:       logW,
	}
}

// sampledUser reports whether user falls in the shadow sample —
// deterministic, so a user is either always or never shadowed for a given
// sample rate, and allocation-free.
func (sh *shadower) sampledUser(user int) bool {
	return sh.threshold != 0 && fnvUser(sh.seed, user)>>32 < sh.threshold
}

// shadowJob is one sampled user's comparison: the slot it was served
// from (arm, version, request filters) and a copy of the list served.
type shadowJob struct {
	Slot
	user   int
	items  []uint32
	scores []float64
}

// observe hands a tenant request's sampled, served users to one goroutine
// that compares them in turn while it holds a slot, over copies of the
// lists served: cols are the request's pooled columns, user i's list at
// the offset the counts before it sum to, reused as soon as the response
// is written. With every slot taken, the users are shed.
func (sh *shadower) observe(users []int, m int, slots []Slot, cols *rank.BatchCols) {
	var jobs []shadowJob
	at := 0
	for i, sl := range slots {
		end := at + int(cols.Counts[i])
		if sl.Err == nil && sh.sampledUser(users[i]) {
			jobs = append(jobs, shadowJob{sl, users[i], cols.Items[at:end], cols.Scores[at:end]})
		}
		at = end
	}
	if len(jobs) == 0 {
		return
	}
	select {
	case sh.slots <- struct{}{}:
	default:
		sh.shed.Add(int64(len(jobs)))
		return
	}
	for n := range jobs {
		jobs[n].items, jobs[n].scores = slices.Clone(jobs[n].items), slices.Clone(jobs[n].scores)
	}
	sh.sampled.Add(int64(len(jobs)))
	sh.wg.Add(1)
	go func() {
		defer sh.wg.Done()
		defer func() { <-sh.slots }()
		for _, j := range jobs {
			sh.compare(j, m)
		}
	}()
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
	ShadowItems    []uint32 `json:"shadow_items"`
	Error          string   `json:"error,omitempty"`
}

func (sh *shadower) compare(j shadowJob, m int) {
	// Shadow work must never take the serving process down: a panic out
	// of the candidate engine (a corrupt candidate file would not have
	// loaded, but belt and suspenders) is downgraded to an error counter.
	defer func() {
		if p := recover(); p != nil {
			sh.errs.Add(1)
		}
	}()
	sn := sh.model.base.Load()
	rec := shadowRecord{
		Tenant:         sh.tenant,
		Arm:            j.arm.name,
		User:           j.user,
		M:              m,
		PrimaryModel:   j.arm.model.name,
		PrimaryVersion: j.armVersion,
		ShadowModel:    sh.model.name,
		ShadowVersion:  sn.version,
		PrimaryItems:   j.items,
	}
	if j.user < 0 || j.user >= sn.model.NumUsers() {
		rec.Error = fmt.Sprintf("user %d beyond the shadow model's %d users", j.user, sn.model.NumUsers())
		sh.errs.Add(1)
		sh.emit(rec)
		return
	}
	var stages []rank.Stage
	if st := sh.armStages.Load(); st != nil {
		stages = (*st)[j.arm.name]
	}
	var cols rank.BatchCols
	sn.engine.TopMBatch([]int{j.user}, m, 1, stages, func(int) ([]rank.Filter, bool) { return j.extra, true }, &cols)
	rec.ShadowItems = cols.Items
	rec.RankDiffs, rec.MaxScoreDiff = diffLists(j.items, j.scores, cols.Items, cols.Scores)
	if rec.RankDiffs > 0 {
		sh.diffs.Add(1)
	}
	sh.emit(rec)
}

// diffLists compares two ranked lists position-wise: how many positions
// disagree on the item (length mismatches count every unpaired position)
// and the largest absolute score difference over the shared prefix.
func diffLists(aItems []uint32, aScores []float64, bItems []uint32, bScores []float64) (rankDiffs int, maxScoreDiff float64) {
	n := min(len(aItems), len(bItems))
	for i := 0; i < n; i++ {
		if aItems[i] != bItems[i] {
			rankDiffs++
		}
		if d := math.Abs(aScores[i] - bScores[i]); d > maxScoreDiff {
			maxScoreDiff = d
		}
	}
	return rankDiffs + len(aItems) + len(bItems) - 2*n, maxScoreDiff
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
		"shed":    sh.shed.Load(),
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
