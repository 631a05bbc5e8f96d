// Self-tests of the serving benchmark: seeded input determinism and the
// correctness checker's ability to reject planted defects. Prints one line
// per failed expectation; exit code 0 when all hold.
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAILED: " << what << "\n";
  }
}

bool same_schedule(const OpenLoopSchedule& a, const OpenLoopSchedule& b) {
  return a.arrival_s == b.arrival_s && a.delay_s == b.delay_s &&
         a.device == b.device;
}

std::vector<std::uint32_t> closed_loop_draws(std::uint64_t seed) {
  const auto pool = make_pool(0, 2762, 10, seed);
  ClosedLoopDraws draws(workloads().front(), pool, 0, seed, 1);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t device = draws.device();
    out.push_back(device);
    out.push_back(static_cast<std::uint32_t>(draws.lag_cycles(device)));
  }
  return out;
}

void seeded_inputs_are_deterministic() {
  const auto pool7 = make_pool(0, 2762, 10, 7);
  const auto pool8 = make_pool(0, 2762, 10, 8);
  for (const WorkloadSpec& spec : workloads()) {
    const auto a = make_open_loop(spec, pool7, 0, 1.0, 7);
    const auto b = make_open_loop(spec, pool7, 0, 1.0, 7);
    const auto c = make_open_loop(spec, pool8, 0, 1.0, 8);
    expect(!a.arrival_s.empty(), spec.name + ": open-loop schedule is empty");
    expect(same_schedule(a, b), spec.name + ": same seed, different schedule");
    expect(!same_schedule(a, c), spec.name + ": different seed, same schedule");
    const auto pa = make_poll_schedule(spec, 0, 1.0, 7);
    const auto pb = make_poll_schedule(spec, 0, 1.0, 7);
    const auto pc = make_poll_schedule(spec, 0, 1.0, 8);
    expect(pa.at_s == pb.at_s && pa.device == pb.device,
           spec.name + ": same seed, different poll schedule");
    if (spec.request_threads > 0) {
      expect(pa.at_s != pc.at_s,
             spec.name + ": different seed, same poll schedule");
    }
  }
  expect(closed_loop_draws(7) == closed_loop_draws(7),
         "closed loop: same seed, different draws");
  expect(closed_loop_draws(7) != closed_loop_draws(8),
         "closed loop: different seed, same draws");

  const auto pa = make_pool(0, 2762, 10, 7);
  const auto pb = make_pool(0, 2762, 10, 7);
  const auto pc = make_pool(0, 2762, 10, 8);
  expect(pa.frames.size() == kPoolSize, "pool size");
  expect(pa.frames == pb.frames, "same seed, different frame bytes");
  expect(pa.frames != pc.frames, "different seed, same frame bytes");
  expect(model_seed(7, 0) == model_seed(7, 0) &&
             model_seed(7, 0) != model_seed(8, 0),
         "model init seed not a function of the seed");
}

void patch_touches_only_the_task_version() {
  auto frame = make_pool(0, 2762, 10, 7).frames[3];
  const auto before = frame;
  patch_task_version(frame, 0x0102030405060708ULL);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (i >= 16 && i < 24) continue;
    expect(frame[i] == before[i], "patch changed byte " + std::to_string(i));
  }
  expect(frame[16] == 0x08 && frame[23] == 0x01, "task version not little endian");
}

void checker_rejects_planted_ledger_mismatch() {
  fleet::net::IngestStats s;
  s.frames_sent = 100;
  s.frames_submitted = 90;
  s.wire_rejects = 4;
  s.server_rejects = 5;
  s.shed_drops = 1;
  expect(check_ledger(s).empty(), "balanced ledger rejected");
  s.frames_submitted = 89;  // one frame unaccounted for
  expect(!check_ledger(s).empty(), "ledger missing a frame accepted");

  fleet::runtime::RuntimeStats r;
  r.submitted = 50;
  r.processed = 48;
  r.invalid_jobs = 2;
  expect(check_session(r, 48, 1).empty(), "consistent session rejected");
  expect(!check_session(r, 47, 1).empty(), "version != processed / K accepted");
  r.processed = 47;
  expect(!check_session(r, 47, 1).empty(), "processed mismatch accepted");
}

void checker_rejects_one_bit_parameter_difference() {
  const auto pool = make_pool(0, 2762, 10, 7);
  const auto decoded = decode_pool(pool);
  std::vector<AdmittedUpload> admitted;
  for (std::uint32_t i = 0; i < 40; ++i) admitted.push_back({i / 2, i % 64u});
  const WorkloadSpec& spec = *find_workload("small_online");
  const auto want = reference_replay(spec.model, model_seed(7, 0),
                                     server_config(spec), decoded, admitted);
  const auto again = reference_replay(spec.model, model_seed(7, 0),
                                      server_config(spec), decoded, admitted);
  expect(check_bitwise(again, want).empty(), "reference replay not reproducible");
  expect(check_finite(want).empty(), "reference parameters not finite");
  auto got = want;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &got[1234], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&got[1234], &bits, sizeof(bits));
  expect(!check_bitwise(got, want).empty(), "one-bit difference accepted");
  got = want;
  got[7] = std::numeric_limits<float>::quiet_NaN();
  expect(!check_finite(got).empty(), "NaN parameter accepted");
}

}  // namespace

int main() {
  seeded_inputs_are_deterministic();
  patch_touches_only_the_task_version();
  checker_rejects_planted_ledger_mismatch();
  checker_rejects_one_bit_parameter_difference();
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
