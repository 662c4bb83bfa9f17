package cluster

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ranktest"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestFloat32SectionServesNothing: one trained model saved twice, with and
// without the float32 copy of its factors, answers byte for byte the same
// on every answer path — a full server's /v1/batch JSON and /v2/batch
// frame, and a two-shard router's merge on both. With bias every user is
// swept through ScoreItems; without, every known user is walked through
// the support index. Either way nothing scores the float32 copy.
func TestFloat32SectionServesNothing(t *testing.T) {
	for _, bias := range []bool{false, true} {
		t.Run(fmt.Sprintf("bias=%v", bias), func(t *testing.T) {
			var answers [2]map[string][]byte
			for n, f32 := range []bool{false, true} {
				fx := ranktest.New(t, ranktest.Variant{Bias: bias, F32: f32})
				users := make([]uint32, fx.Train.Rows())
				ids := make([]string, len(users))
				for u := range users {
					users[u], ids[u] = uint32(u), fmt.Sprint(u)
				}
				js := []byte(`{"users":[` + strings.Join(ids, ",") + `],"m":10}`)
				frame := &wire.BatchRequest{M: 10, Users: users}

				full, err := serve.NewFromFile(serve.Config{ModelPath: fx.Path, Train: fx.Train})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = full.Close() })
				fullTS := httptest.NewServer(full.Handler())
				t.Cleanup(fullTS.Close)
				tr := newTierOver(t, fx, 2, Config{})

				answers[n] = map[string][]byte{}
				for _, base := range []struct{ who, url string }{{"server", fullTS.URL}, {"router", tr.routerTS.URL}} {
					for _, post := range []struct {
						route string
						do    func(url string) (int, string, []byte)
					}{
						{"/v1/batch", func(url string) (int, string, []byte) {
							return ranktest.PostRaw(t, url, "application/json", js, nil)
						}},
						{"/v2/batch", func(url string) (int, string, []byte) { return ranktest.PostFrame(t, url, frame) }},
					} {
						st, _, body := post.do(base.url + post.route)
						if st != 200 {
							t.Fatalf("f32=%v %s %s: status %d: %s", f32, base.who, post.route, st, body)
						}
						answers[n][base.who+" "+post.route] = body
					}
				}
			}
			for path, plain := range answers[0] {
				if quantized := answers[1][path]; string(quantized) != string(plain) {
					t.Errorf("%s: a file with a float32 section answers %d bytes that differ from the %d of the same model without one",
						path, len(quantized), len(plain))
				}
			}
		})
	}
}
