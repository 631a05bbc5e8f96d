#include "keepalive.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <chrono>
#include <system_error>

namespace servebench {

namespace {

/// Well inside the hypervisor's halt-poll window (200 us by default on
/// KVM), so a vCPU this thread keeps waking never leaves it.
constexpr std::chrono::microseconds kTick{100};

}  // namespace

CpuKeepAlive::CpuKeepAlive() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    try {
      start(cpu);
    } catch (const std::system_error&) {
      return;  // out of threads: the CPUs covered so far stay covered
    }
  }
}

void CpuKeepAlive::start(int cpu) {
  threads_.emplace_back([this, cpu] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    const sched_param idle{};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
    // Default timer slack (50 us) would stretch the tick towards the
    // edge of the halt-poll window.
    (void)prctl(PR_SET_TIMERSLACK, 1UL);
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(kTick);
    }
  });
}

CpuKeepAlive::~CpuKeepAlive() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

}  // namespace servebench
