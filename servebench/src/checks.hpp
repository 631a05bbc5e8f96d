#pragma once

// Correctness checks every benchmark run makes. Each returns an empty
// string when the check holds, otherwise what failed.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fleet/core/config.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/runtime/model_session.hpp"
#include "workload.hpp"

namespace servebench {

/// frames_sent == frames_submitted + wire_rejects + server_rejects
///                + shed_drops, with the front end drained.
std::string check_ledger(const fleet::net::IngestStats& ingest);

/// processed == submitted - retired_drops - invalid_jobs and
/// version == processed / K, for one drained session.
std::string check_session(const fleet::runtime::RuntimeStats& stats,
                          std::size_t version, std::size_t aggregation_k);

std::string check_finite(std::span<const float> params);

/// Bitwise equality of two parameter vectors.
std::string check_bitwise(std::span<const float> got,
                          std::span<const float> want);

/// One admitted upload of a session, in admission order.
struct AdmittedUpload {
  std::uint64_t task_version = 0;
  std::uint32_t frame = 0;
};

/// Decoded contents of a session's frame pool (frames decode to the same
/// gradient whatever task version is patched in).
struct DecodedPool {
  std::vector<std::vector<float>> gradients;
  std::vector<fleet::stats::LabelDistribution> labels;
  std::vector<std::size_t> mini_batch;
};
DecodedPool decode_pool(const FramePool& pool);

/// Replay an admitted sequence through the sequential reference server,
/// core::FleetServer::handle_gradient, from a fresh model; returns its
/// final parameters.
std::vector<float> reference_replay(ModelKind kind, std::uint64_t init_seed,
                                    const fleet::core::ServerConfig& config,
                                    const DecodedPool& pool,
                                    std::span<const AdmittedUpload> admitted);

}  // namespace servebench
