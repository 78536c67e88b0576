package eval

import "gemini/internal/core"

// Summary lets the external tests hold and compare group summaries.
type Summary = groupSummary

// SummarizeAnalysis exposes the bandwidth-free half of EvaluateAnalysis.
func (e *Evaluator) SummarizeAnalysis(an *core.Analysis) Summary { return e.summarizeParsed(an) }
