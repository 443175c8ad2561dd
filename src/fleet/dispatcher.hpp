#pragma once

/// \file dispatcher.hpp
/// The fleet dispatcher: the server-side broker between a SearchController
/// batch (WorkerEvalBackend::evaluate) and the remote worker processes that
/// ATTACH over the wire protocol. Implements the WorkSink seam the tuning
/// server pushes worker events through (core/work_sink.hpp).
///
/// Dispatch model — one shared queue, work-conserving ("stealing") refill:
/// every batch item enters a single pending queue; any worker with free
/// capacity takes from it, least-loaded first, regardless of which reactor
/// shard its connection lives on. Whenever capacity frees anywhere (a
/// RESULT, a fresh ATTACH, a DETACH re-queue), the pump immediately drains
/// the queue into it, so a fast worker that empties its pipeline pulls work
/// that would otherwise idle behind a slow one.
///
/// Fault tolerance:
///  * worker death — the server detaches the worker (connection teardown);
///    items it held in flight re-enter the queue head and re-dispatch;
///  * stragglers — an item in flight longer than `straggler_timeout` is
///    duplicated onto another free worker; the first RESULT wins and the
///    loser's late duplicate is counted (`deduped`) and dropped, freeing its
///    capacity;
///  * elastic membership — ATTACH/DETACH at any point mid-search: new
///    workers start pulling from the shared queue immediately, and a
///    graceful DETACH re-queues exactly like a death.
///
/// All public methods are thread-safe. Push functions are always invoked
/// outside the dispatcher lock (an outbox is drained after unlock), so a
/// slow or blocking transport can never stall result ingestion.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/param_space.hpp"
#include "core/work_sink.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace harmony::fleet {

struct DispatcherOptions {
  /// Re-dispatch an in-flight item to a second worker once it has waited
  /// this long (zero disables straggler re-dispatch).
  std::chrono::milliseconds straggler_timeout{1000};

  /// Only workers that ATTACHed with this substrate name receive work;
  /// empty accepts any worker.
  std::string substrate;

  /// StatusRegistry pool prefix for the per-worker lanes ("<pool>/<name>").
  std::string status_pool = "fleet";

  /// Span sink for dispatch tracing (not owned, may be null). Sampled batch
  /// items get queue-wait / eval / straggler-redispatch spans recorded here,
  /// and their WORK lines carry the wire trace token so the remote worker's
  /// spans join the same trace (see protocol.hpp).
  obs::SearchTracer* tracer = nullptr;

  /// Head-based sampling probability in [0, 1] applied per batch item; 0
  /// traces nothing even with a tracer set.
  double trace_sample = 0.0;
};

/// Lifetime counters (monotonic; snapshot via stats()).
struct DispatcherStats {
  std::uint64_t dispatched = 0;    ///< WORK pushes sent (including duplicates)
  std::uint64_t completed = 0;     ///< items finished by a first RESULT
  std::uint64_t requeued = 0;      ///< items re-queued by a worker detach
  std::uint64_t redispatched = 0;  ///< straggler duplicates issued
  std::uint64_t deduped = 0;       ///< late duplicate RESULTs dropped
  std::uint64_t failed = 0;        ///< items whose winning RESULT was FAIL
};

class Dispatcher final : public WorkSink {
 public:
  /// `space` must outlive the dispatcher; WORK lines encode against it.
  explicit Dispatcher(const ParamSpace& space, DispatcherOptions opts = {});
  ~Dispatcher() override;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // ---- WorkSink (called by the tuning server) -----------------------------
  [[nodiscard]] std::uint64_t attach(const std::string& name, int capacity,
                                     PushFn push) override;
  void detach(std::uint64_t worker_id) override;
  bool on_result(std::uint64_t worker_id, std::uint64_t work_id, bool ok,
                 double objective, double cost_s) override;
  void heartbeat(std::uint64_t worker_id) override;

  // ---- batch side (called by WorkerEvalBackend) ---------------------------

  /// Dispatch the whole batch across the fleet and block until every item
  /// has a result (or shutdown() fails the remainder). Element-wise results
  /// in batch order. Safe to call from several threads at once.
  [[nodiscard]] std::vector<EvalOutcome> run_batch(const std::vector<Config>& batch);

  /// Block until at least `n` eligible workers are attached; false on
  /// timeout. Lets hosts sequence "start server, spawn workers, run search".
  [[nodiscard]] bool wait_for_workers(std::size_t n,
                                      std::chrono::milliseconds timeout);

  /// Fail every pending/in-flight item with an invalid result and refuse
  /// further batches. Called by the destructor; idempotent.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const;
  [[nodiscard]] std::size_t total_capacity() const;
  [[nodiscard]] DispatcherStats stats() const;

  /// In-flight evaluation latency (WORK dispatch to winning RESULT), always
  /// recorded; lock-free to read while batches run (atomic buckets). The
  /// fleet bench reads its p50/p99 for BENCH_*.json.
  [[nodiscard]] const obs::Histogram& eval_latency() const noexcept {
    return eval_s_;
  }

 private:
  struct Batch {
    std::vector<EvalOutcome> out;
    std::size_t remaining = 0;
    bool failed = false;  ///< shutdown() filled the remainder as invalid
  };

  struct Item {
    std::uint64_t id = 0;
    Batch* batch = nullptr;
    std::size_t slot = 0;                 ///< index into batch->out
    std::string payload;                  ///< complete "WORK ...\n" line
    std::chrono::steady_clock::time_point issued{};
    std::set<std::uint64_t> holders;      ///< workers currently holding it

    // Tracing: trace.span_id is the item's root span; enqueued anchors the
    // queue-wait span; ever_dispatched keeps that span first-dispatch-only.
    obs::TraceContext trace;
    std::chrono::steady_clock::time_point enqueued{};
    bool ever_dispatched = false;
  };

  struct WorkerState {
    std::string name;
    int capacity = 1;
    PushFn push;
    std::set<std::uint64_t> inflight;     ///< item ids held
    std::uint64_t completed = 0;
    obs::StatusRegistry::WorkerHandle lane;
  };

  using Outbox = std::vector<std::pair<PushFn, std::string>>;

  [[nodiscard]] bool eligible(const WorkerState& w) const;
  /// Head-based sampling decision for one fresh batch item.
  [[nodiscard]] bool sample_trace() const;
  /// Record a child span of `item`'s root span ending now, lasting `dur_us`.
  /// No-op for unsampled items.
  void span_locked(const Item& item, const char* name,
                   const std::string& detail, double dur_us) const;
  /// Drain the pending queue into free capacity (least-loaded first);
  /// callers send the outbox after unlocking.
  void pump_locked(Outbox& outbox);
  /// Duplicate timed-out in-flight items onto free workers.
  void check_stragglers_locked(Outbox& outbox);
  void publish_worker_locked(std::uint64_t id, WorkerState& w);
  void finish_item_locked(std::map<std::uint64_t, Item>::iterator it,
                          const EvalOutcome& outcome);
  static void send_outbox(Outbox& outbox);

  const ParamSpace* space_;
  DispatcherOptions opts_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::uint64_t next_worker_id_ = 0;
  std::uint64_t next_work_id_ = 0;
  std::map<std::uint64_t, WorkerState> workers_;
  std::map<std::uint64_t, Item> items_;   ///< incomplete items by id
  std::deque<std::uint64_t> pending_;     ///< ids with no holder yet
  DispatcherStats stats_;
  obs::Histogram eval_s_;              ///< dispatch-to-RESULT latency

};

}  // namespace harmony::fleet
