package eval

import (
	"gemini/internal/core"
	"gemini/internal/intracore"
)

// SummarizeAnalysis exposes the bandwidth-free half of EvaluateAnalysis.
func (e *Evaluator) SummarizeAnalysis(an *core.Analysis) Summary { return e.summarizeParsed(an) }

// Memo exposes the Explore memo the evaluator reads, its cache's.
func (e *Evaluator) Memo() *intracore.Memo { return e.cache.memo }
