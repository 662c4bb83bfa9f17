package serve

import (
	"testing"

	"repro/internal/ranktest"
)

// TestBatchReportsRankingSnapshotVersion: a batch is labelled with the
// version of the snapshot that ranked it, not of whatever is installed by
// the time the response is shaped. The pipeline's ranking half runs here
// against a snapshot a reload has already retired — deterministically the
// state a reload landing mid-batch leaves a request in.
func TestBatchReportsRankingSnapshotVersion(t *testing.T) {
	srv, _, _, train := newTestServer(t, Config{})
	retired := srv.snap.Load()
	if err := ranktest.Train(t, train, 99).SaveModelFile(srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadFromFile(); err != nil {
		t.Fatal(err)
	}
	if cur := srv.Version(); cur != retired.version+1 {
		t.Fatalf("reload installed version %d, want %d", cur, retired.version+1)
	}
	req := &BatchRequest{Users: []int{3, 7, 11}}
	a := new(Answer)
	if err := srv.rankBatch(nil, route{sn: retired}, req, 5, 1, a); err != nil {
		t.Fatal(err)
	}
	if version := a.ModelVersion; version != retired.version {
		t.Errorf("batch ranked by snapshot %d reports model version %d", retired.version, version)
	}
	off := 0
	for i, u := range req.Users {
		items, scores, _ := retired.engine.TopM(u, 5)
		for r := range items {
			if int(a.Cols.Items[off+r]) != items[r] || a.Cols.Scores[off+r] != scores[r] {
				t.Fatalf("user slot %d rank %d: the batch did not rank against the retired snapshot", i, r)
			}
		}
		off += int(a.Cols.Counts[i])
	}
}
