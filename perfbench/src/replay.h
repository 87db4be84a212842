#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "stats.h"
#include "workload.h"
#include "xpath/axis_kernels.h"

namespace perfbench {

/// Replays the workload's warm-up and then its request stream, one request
/// at a time on the calling thread, through each layer's public entry
/// point in turn — DecodeFrame/TranslateFrame, PlanCache::ParseCompiled,
/// Query::Parse, exec::Program::Compile, ExecEngine::Eval on the
/// BatchEngine's TreeCaches, BatchEngine::RunCompiledOnTrees, and
/// EncodeResponseFrame — timing each call. Also times XML ingest and
/// TreeCache construction per tree. Runs for about `seconds` after the
/// warm-up; `pool_width` sizes the BatchEngine pool like the server's.
/// Fills the replay-sourced per-layer metrics into `out` and each tree's
/// TreeCache calibration into `calibrations`, and returns false if any
/// replayed answer differs from the reference.
bool Replay(const Workload& w, int pool_width, double seconds, Layers* out,
            std::vector<xptc::axis::Calibration>* calibrations);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
