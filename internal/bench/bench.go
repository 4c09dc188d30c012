// Package bench holds the one workload definition the measurement code
// shares: ScaledBGL, the Blue Gene/L profile widened to a target event-type
// count ("bgl200"). The repo benchmark (benchmark/, a module of its own)
// stages its serve_wide and offline_bgl200 streams from it and
// internal/correlate's BenchmarkRefreshSteadyState trains on it, so both
// read the same model shape. It lives at this import path, apart from
// internal/gen's paper profiles, because benchmark/ imports it from here
// and a change to the program may not edit the benchmark.
package bench

import (
	"fmt"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// ScaledBGL pads the Blue Gene/L profile with synthetic periodic monitor
// daemons until the generated log shows roughly target distinct event
// types. Each daemon's message carries several daemon-specific tokens so
// HELO (similarity threshold 0.6) keeps the templates apart.
func ScaledBGL(target int) gen.Profile {
	p := gen.BlueGeneL()
	// The base profile yields ~43 templates on a one-day log; every extra
	// daemon adds one.
	const baseTemplates = 43
	for i := 0; target > baseTemplates && i < target-baseTemplates; i++ {
		p.Daemons = append(p.Daemons, gen.DaemonSpec{
			Name:      fmt.Sprintf("synth%03d", i),
			Component: fmt.Sprintf("SYN%02d", i%20),
			Severity:  logs.Info,
			// Three daemon-specific tokens out of five keep the similarity
			// to any sibling template at 0.4, below HELO's 0.6 merge
			// threshold, so each daemon yields its own event type.
			Message: fmt.Sprintf("chan%d p%d s%d reading d+",
				i, 7*i+1, 13*i+5),
			Period: time.Duration(97+13*(i%50)) * time.Second,
		})
	}
	p.Name = fmt.Sprintf("bgl%d", target)
	return p
}
