// Pipeline-mode names kept only for the benchmark (perfbench/driver.cc).
//
// The stage executor these names once configured is gone: pretraining and
// the serving batch worker run their stages in sequence, and ParallelFor
// (util/parallel.h) is the only threading substrate. perfbench/driver.cc
// still pins the mode and writes PipelineModeName(GetPipelineMode()) into
// its result fingerprint, which compare.py checks, so the names stay as a
// one-value stub that always reads "off". The header stays only for
// perfbench, until ROADMAP item 6 removes it with the next benchmark
// change.

#ifndef GRAPHPROMPTER_UTIL_PIPELINE_H_
#define GRAPHPROMPTER_UTIL_PIPELINE_H_

namespace gp {

enum class PipelineMode { kOff };

inline const char* PipelineModeName(PipelineMode) { return "off"; }
inline PipelineMode GetPipelineMode() { return PipelineMode::kOff; }
inline void SetPipelineMode(PipelineMode) {}

}  // namespace gp

#endif  // GRAPHPROMPTER_UTIL_PIPELINE_H_
