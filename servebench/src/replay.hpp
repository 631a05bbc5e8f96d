#pragma once

// Stage replay: after a traced run, feed one session's recorded
// device-cycle log single-threaded through each layer's public function
// and time every call, so each layer's self time is measured with nothing
// else contending.

#include <cstdint>

#include "run.hpp"
#include "workload.hpp"

namespace servebench {

/// Median self time per call, ns, unless noted.
struct ReplayTimes {
  double decode_ns = 0.0;        // WireDecoder::decode
  double decode_mb_per_s = 0.0;  // frame bytes / decode time
  double plan_warm_ns = 0.0;     // AsyncAggregator::plan_submit, window filling
  double plan_full_ns = 0.0;     // ... window full
  double fold_ns = 0.0;          // fold_into + flush_span + apply
  double publish_ns = 0.0;       // ModelStore::publish, per call
  double admit_warm_ns = 0.0;    // Controller::admit, windows filling
  double admit_full_ns = 0.0;    // ... windows full
  double predict_ns = 0.0;       // IProf::predict_batch
  double similarity_ns = 0.0;    // AsyncAggregator::similarity_of
};

ReplayTimes stage_replay(const WorkloadSpec& spec, std::uint64_t seed,
                         const FramePool& pool, const SessionRecord& record);

}  // namespace servebench
