package oracle

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/engine"
)

// TestTopKAgreesAcrossK is a metamorphic check: the answer at k is a prefix
// of the answer at 2k. On one engine, each query of the -quick corpus (seeds
// 1–40) runs at k and then at 2k, so the second session is served by the
// template built at k; the score column at k must equal the first k scores
// at 2k. Scores rather than rows are compared, so ties cannot make it flaky.
// It runs unsharded and on 2 shards.
func TestTopKAgreesAcrossK(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := Generate(seed)
		for _, name := range c.names {
			if err := c.cat.SetPartition(name, catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionHash}); err != nil {
				t.Fatal(err)
			}
		}
		limit := fmt.Sprintf(" LIMIT %d", c.K)
		if !strings.HasSuffix(c.SQL, limit) {
			t.Fatalf("seed %d: query does not end in%s: %s", seed, limit, c.SQL)
		}
		sql2k := strings.TrimSuffix(c.SQL, limit) + fmt.Sprintf(" LIMIT %d", 2*c.K)
		for _, shards := range []int{0, 2} {
			eng := engine.NewWithConfig(c.cat, engine.Config{Shards: shards})
			atK := eng.Run(engine.Request{SQL: c.SQL})
			at2K := eng.Run(engine.Request{SQL: sql2k})
			for _, resp := range []engine.Response{atK, at2K} {
				if resp.Err != nil {
					t.Fatalf("seed %d shards=%d: %v\nquery: %s", seed, shards, resp.Err, c.SQL)
				}
				if resp.Sharded != (shards > 0) {
					t.Fatalf("seed %d shards=%d: sharded = %v", seed, shards, resp.Sharded)
				}
			}
			if !at2K.CacheHit {
				t.Fatalf("seed %d shards=%d: the run at 2k was not served by the template built at k", seed, shards)
			}
			a, b := rowScores(atK.Tuples), rowScores(at2K.Tuples)
			if len(a) != min(c.K, len(b)) || !slices.Equal(a, b[:len(a)]) {
				t.Errorf("seed %d shards=%d: scores at k=%d %v are not the first of those at 2k %v\nquery: %s",
					seed, shards, c.K, a, b, c.SQL)
			}
		}
	}
}
