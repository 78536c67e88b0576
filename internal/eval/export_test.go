package eval

import (
	"gemini/internal/core"
	"gemini/internal/intracore"
)

// SummarizeAnalysis exposes the bandwidth-free half of EvaluateAnalysis.
func (e *Evaluator) SummarizeAnalysis(an *core.Analysis) Summary { return e.summarizeParsed(an) }

// Memo exposes the Explore memo the evaluator reads, its cache's.
func (e *Evaluator) Memo() *intracore.Memo { return e.cache.memo }

// SharesRoutes reports whether a and b route on one noc route table: Route
// returns a view into the table, so the two see one path by address.
func SharesRoutes(a, b *Evaluator) bool {
	ra, rb := a.Net.Route(0, 1), b.Net.Route(0, 1)
	return &ra[0] == &rb[0]
}
