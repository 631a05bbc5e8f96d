#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "fleet/net/wire.hpp"
#include "fleet/profiler/iprof.hpp"

namespace servebench {

std::string check_ledger(const fleet::net::IngestStats& s) {
  const std::size_t settled =
      s.frames_submitted + s.wire_rejects + s.server_rejects + s.shed_drops;
  if (s.frames_sent == settled) return {};
  return "ingest ledger: frames_sent " + std::to_string(s.frames_sent) +
         " != submitted " + std::to_string(s.frames_submitted) +
         " + wire_rejects " + std::to_string(s.wire_rejects) +
         " + server_rejects " + std::to_string(s.server_rejects) +
         " + shed_drops " + std::to_string(s.shed_drops);
}

std::string check_session(const fleet::runtime::RuntimeStats& s,
                          std::size_t version, std::size_t aggregation_k) {
  if (s.retired_drops + s.invalid_jobs > s.submitted ||
      s.processed != s.submitted - s.retired_drops - s.invalid_jobs) {
    return "session counters: processed " + std::to_string(s.processed) +
           " != submitted " + std::to_string(s.submitted) +
           " - retired_drops " + std::to_string(s.retired_drops) +
           " - invalid_jobs " + std::to_string(s.invalid_jobs);
  }
  if (aggregation_k == 0 || version != s.processed / aggregation_k) {
    return "session clock: version " + std::to_string(version) +
           " != processed " + std::to_string(s.processed) + " / K " +
           std::to_string(aggregation_k);
  }
  return {};
}

std::string check_finite(std::span<const float> params) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!std::isfinite(params[i])) {
      return "parameter " + std::to_string(i) + " is not finite";
    }
  }
  return {};
}

std::string check_bitwise(std::span<const float> got,
                          std::span<const float> want) {
  if (got.size() != want.size()) {
    return "parameter count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return "parameter " + std::to_string(i) +
             " differs from the sequential reference";
    }
  }
  return {};
}

DecodedPool decode_pool(const FramePool& pool) {
  DecodedPool decoded;
  fleet::net::WireDecoder decoder;
  for (const auto& frame : pool.frames) {
    fleet::runtime::GradientJob job;
    if (decoder.decode(frame, job) != fleet::net::WireError::kOk) {
      throw std::runtime_error("decode_pool: pool frame does not decode");
    }
    decoded.gradients.push_back(std::move(job.gradient));
    decoded.labels.push_back(job.label_dist);
    decoded.mini_batch.push_back(job.mini_batch);
  }
  return decoded;
}

std::vector<float> reference_replay(ModelKind kind, std::uint64_t init_seed,
                                    const fleet::core::ServerConfig& config,
                                    const DecodedPool& pool,
                                    std::span<const AdmittedUpload> admitted) {
  auto model = make_model(kind, init_seed);
  // handle_gradient without feedback never consults the profiler.
  fleet::core::FleetServer server(
      *model,
      std::make_unique<fleet::profiler::IProf>(fleet::profiler::IProf::Config{}),
      config);
  for (const AdmittedUpload& up : admitted) {
    server.handle_gradient(up.task_version, pool.gradients[up.frame],
                           pool.labels[up.frame], pool.mini_batch[up.frame]);
  }
  const auto view = model->parameters_view();
  return {view.begin(), view.end()};
}

}  // namespace servebench
