#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/core/server.hpp"
#include "fleet/learning/aggregator.hpp"
#include "fleet/runtime/fault.hpp"
#include "fleet/telemetry/telemetry.hpp"

namespace fleet::runtime {

/// One step of a batched fold plan (DESIGN.md §6). The aggregation thread
/// builds the plan centrally — one kFold per accepted gradient carrying the
/// weight it computed (staleness lambda(tau) + boost, at processing time),
/// one kFlushApply wherever a submission completed an aggregation round —
/// and the shard workers replay it span by span.
struct FoldOp {
  enum class Kind { kFold, kFlushApply };
  Kind kind = Kind::kFold;
  /// kFold: the worker's full-length gradient (each shard folds its slice).
  /// Must outlive the plan's execution — the runtime keeps the drained
  /// batch alive until every latch of the drain resolved.
  std::span<const float> gradient;
  /// kFold: the dampened weight, computed centrally by plan_submit().
  double weight = 0.0;
  /// kFlushApply: the server's learning rate for `params -= lr * agg`.
  float learning_rate = 0.0f;
};

/// One contiguous [begin, end) slice of a parameter arena — the unit a
/// fold task owns exclusively.
struct FoldSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The per-model state one fold plan executes against: the session's
/// aggregator (accumulator + flushed buffer) and its model's mutable
/// parameter arena. On a multi-tenant host (DESIGN.md §7/§9) every
/// registered model has its own context while the scheduler below is
/// shared. `spans` is the arena's span partition, one fold task per span;
/// it must tile the arena exactly (ModelSession caches partition() once
/// per arena, DESIGN.md §9).
struct FoldContext {
  learning::AsyncAggregator* aggregator = nullptr;
  std::span<float> parameters;
  std::span<const FoldSpan> spans;
  /// Which tenant this plan belongs to — carried only so fold-task trace
  /// spans can be keyed by model; the fold itself never reads it.
  core::ModelId model = core::kDefaultModelId;
};

/// Completion latch for one submitted fold plan: submit() arms it with the
/// plan's span-task count, every finished task counts it down, and wait()
/// blocks until it hits zero. Owned by the caller (one per in-flight plan)
/// and reusable once resolved — the server keeps one per session slot.
class FoldLatch {
 public:
  FoldLatch() = default;
  FoldLatch(const FoldLatch&) = delete;
  FoldLatch& operator=(const FoldLatch&) = delete;

  /// True when no armed task is outstanding (trivially true before any
  /// submit). Safe to poll from the submitting thread; for the full
  /// happens-before edge on the folded data, go through wait().
  bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

  /// Tasks of the last plan(s) that finished by throwing instead of
  /// folding (DESIGN.md §14): the scheduler catches the exception, counts
  /// it here and still resolves the latch, so the coordinator can never
  /// deadlock on a failed fold. Reading is destructive — the coordinator
  /// takes the count once per wait and quarantines the owning session.
  std::size_t take_failures() {
    return failed_.exchange(0, std::memory_order_acq_rel);
  }

 private:
  friend class ShardedAggregator;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> failed_{0};
};

/// Sharded fold scheduler (DESIGN.md §9): a parameter arena is partitioned
/// into contiguous spans and a drain batch's weighted fold fans out across
/// a persistent worker pool, one task per (plan, span).
///
/// Unlike the earlier one-plan-at-a-time barrier, the pool runs a task
/// *queue*: the coordinator may submit many sessions' (context, plan)
/// pairs back to back — each armed with its own FoldLatch — and different
/// sessions' spans execute concurrently. That is legal because sessions'
/// parameter arenas and aggregator accumulators are disjoint, and it is
/// deterministic because concurrency never crosses a span boundary: each
/// task replays its whole plan over its own slice in plan order, so every
/// element still experiences the identical operation sequence the
/// sequential fold would apply. Per-session results are bitwise equal to a
/// solo sequential server for any shard/batch/tenant configuration.
///
/// Threading: `shards - 1` persistent workers (shards == 1 spawns none).
/// submit() only enqueues; tasks are executed by the workers *and* by any
/// thread blocked in wait() — a waiter drains queued tasks (any plan's)
/// instead of idling, which both keeps shards == 1 fully inline on the
/// caller and makes the coordinator the S-th lane of the pool. Every
/// submitted plan must be waited on before the pool is destroyed.
///
/// Workers touch only AsyncAggregator::fold_into / flush_span and their
/// parameter slice — mutually disjoint across tasks — so no lock is held
/// during the fold itself. wait() returning establishes the
/// happens-before edge from every fold of that latch to the caller
/// (publication reads the arena only after its session's latch resolved).
class ShardedAggregator {
 public:
  /// `shards` >= 1; one worker thread is spawned per shard beyond the
  /// first. `worker_cpus` is the placement plan for those workers: entry w
  /// best-effort pins worker w to that CPU (Linux only; -1 or a missing
  /// entry leaves the worker unpinned — see `plan_placement()` and
  /// RuntimeConfig::pin_fold_workers). `telemetry` (optional, caller-owned,
  /// outliving the pool) records per-task fold latency ("pool.task_ns"),
  /// pool occupancy ("pool.pending" gauge) and per-task trace spans.
  /// `fault` (optional, caller-owned, outliving the pool) is the host's
  /// deterministic fault injector: when its kFoldTask site is armed,
  /// selected span tasks throw instead of folding — the pool catches any
  /// task exception (injected or real), counts it on the task's latch
  /// (FoldLatch::take_failures) and keeps the latch resolving, so a
  /// failed fold degrades exactly one session instead of terminating the
  /// process (DESIGN.md §14).
  explicit ShardedAggregator(std::size_t shards,
                             std::vector<int> worker_cpus = {},
                             telemetry::Telemetry* telemetry = nullptr,
                             FaultInjector* fault = nullptr);
  ~ShardedAggregator();

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Enqueue one plan: one task per span of `ctx.spans`, armed on
  /// `latch`. Returns immediately; the plan's gradients, the context's
  /// aggregator/arena/spans and the latch must stay alive until
  /// wait(latch) returned. `latch` must be resolved (done()) on entry —
  /// one latch tracks one plan at a time. Throws std::invalid_argument
  /// when the context's arena size does not match its aggregator's
  /// parameter count or its spans do not tile the arena. An empty plan is
  /// a no-op (the latch stays done).
  void submit(const FoldContext& ctx, std::span<const FoldOp> plan,
              FoldLatch& latch);

  /// Block until every task armed on `latch` finished, executing queued
  /// tasks (any plan's) while work remains instead of sleeping.
  void wait(FoldLatch& latch);

  /// submit() + wait() in one call — the solo, synchronous path (kept for
  /// single-plan callers and the pre-scheduler tests).
  void execute(const FoldContext& ctx, std::span<const FoldOp> plan);

  std::size_t shard_count() const { return shards_; }

  /// How many worker threads the pool runs (shards - 1).
  std::size_t worker_count() const { return workers_.size(); }

  /// How many workers the constructor's placement plan actually pinned.
  /// Equal to the number of non-negative `worker_cpus` entries only when
  /// every requested pin succeeded — the server folds this into
  /// RuntimeStats::pinning_applied (DESIGN.md §13).
  std::size_t pinned_workers() const { return pinned_workers_; }

  /// The contiguous [begin, end) slice shard `s` owns of an arena with
  /// `param_count` elements split `shards` ways — the slices partition()
  /// returns (trailing spans may be empty when shards > param_count).
  static std::pair<std::size_t, std::size_t> span_of(std::size_t param_count,
                                                     std::size_t shards,
                                                     std::size_t s);

  /// The full partition as FoldContext::spans expects it: every non-empty
  /// span of an arena with `param_count` elements split `shards` ways, in
  /// ascending order. ModelSession caches this per arena (DESIGN.md §9).
  static std::vector<FoldSpan> partition(std::size_t param_count,
                                         std::size_t shards);

  /// Scheduler occupancy counters (monotone; read anytime).
  struct PoolStats {
    /// Span tasks completed since construction.
    std::size_t tasks_executed = 0;
    /// High-water mark of tasks in flight at once (queued + running) —
    /// > shard_count() means cross-session overlap actually happened.
    std::size_t peak_pending = 0;
  };
  PoolStats pool_stats() const;

 private:
  struct FoldTask {
    FoldContext ctx;
    std::span<const FoldOp> plan;
    FoldSpan span;
    /// Position of `span` in its plan's partition — the span-affinity key:
    /// worker lane `l` prefers tasks with span_index % shards == l + 1, so
    /// a given arena slice is folded by the same (pinned) worker across
    /// plans and stays hot in that core's cache / NUMA node.
    std::size_t span_index = 0;
    FoldLatch* latch = nullptr;
  };

  /// Lane id passed by waiters (coordinator lanes): take the queue front.
  static constexpr std::size_t kAnyLane = static_cast<std::size_t>(-1);

  /// Pop and run one queued task, preferring the lane's affine spans;
  /// false when the queue was empty.
  bool run_one(std::size_t lane);
  static void run_task(const FoldTask& task);
  void worker_loop(std::size_t lane);

  std::size_t shards_;
  telemetry::Telemetry* telemetry_ = nullptr;  // optional, caller-owned
  FaultInjector* fault_ = nullptr;             // optional, caller-owned
  telemetry::Histogram* task_ns_ = nullptr;
  telemetry::Gauge* pending_ = nullptr;

  // Task queue: submit() pushes under mu_ and wakes workers (work_cv_) and
  // helping waiters (done_cv_); run_one() decrements the task's latch
  // under mu_ before notifying done_cv_, so a waiter's predicate check
  // can never miss the final count-down.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<FoldTask> tasks_;
  std::size_t active_ = 0;  ///< popped but not yet finished
  std::size_t tasks_executed_ = 0;
  std::size_t peak_pending_ = 0;
  bool stopping_ = false;
  std::size_t pinned_workers_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace fleet::runtime
