#pragma once

// Keeps this process's CPUs out of deep idle while the benchmark runs.
//
// On a virtual machine whose guest halts an idle vCPU without polling
// first, a thread woken on a vCPU that has been idle for longer than the
// hypervisor's halt-poll window waits for the host to schedule that vCPU
// again. On the 4-vCPU KVM guest this benchmark was written on, a
// condition-variable ping-pong with 3 ms between rounds took ~80 us per
// round trip at the median and 0.4-3 ms at the 99th percentile, more while
// the host was busy. The server's pipeline (sender -> injector -> planner ->
// fold shards -> publish -> observer) hands every upload across four or
// five such wake-ups, so upload freshness measured the hypervisor's load
// rather than the program. One SCHED_IDLE thread per CPU, pinned to it,
// sleeps 100 us at a time: it runs only on a CPU that is otherwise idle,
// never preempts the host's or the generator's threads, and keeps that
// vCPU inside the halt-poll window, so a wake-up costs what it costs in the
// guest (the same ping-pong: ~30 us, p99 0.05-0.15 ms).

#include <atomic>
#include <thread>
#include <vector>

namespace servebench {

class CpuKeepAlive {
 public:
  /// Starts one ticker per CPU in the process's affinity mask. Best
  /// effort: a CPU the ticker cannot be pinned to, or a refused SCHED_IDLE
  /// policy, leaves that ticker as an ordinary sleeping thread.
  CpuKeepAlive();
  /// Stops and joins every ticker.
  ~CpuKeepAlive();
  CpuKeepAlive(const CpuKeepAlive&) = delete;
  CpuKeepAlive& operator=(const CpuKeepAlive&) = delete;

 private:
  void start(int cpu);

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace servebench
