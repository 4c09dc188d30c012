package bench

import (
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
)

// TestScaledBGLEventTypes checks the padded profile actually lands near
// the requested template count once HELO clusters the generated log.
func TestScaledBGLEventTypes(t *testing.T) {
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	res := gen.New(ScaledBGL(200), 1).Generate(start, 6*time.Hour)
	helo.New(0).Assign(res.Records)
	ids := map[int]bool{}
	for _, r := range res.Records {
		ids[r.EventID] = true
	}
	if len(ids) < 150 || len(ids) > 260 {
		t.Fatalf("scaled profile yields %d event types, want ~200", len(ids))
	}
}
