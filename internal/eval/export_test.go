package eval

import "gemini/internal/core"

// SummarizeAnalysis exposes the bandwidth-free half of EvaluateAnalysis.
func (e *Evaluator) SummarizeAnalysis(an *core.Analysis) Summary { return e.summarizeParsed(an) }
