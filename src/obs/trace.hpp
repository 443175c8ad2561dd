#pragma once

/// \file trace.hpp
/// Span tracing for searches and requests. A SearchTracer records one
/// SpanEvent per timed stage: each objective evaluation of a traced search
/// (which strategy asked, which point was tried, what came back, whether the
/// evaluation cache served it) and each stage of a sampled server, fleet or
/// worker request. It exports the record two ways:
///
///  * JSON-lines (one span object per line), the machine-readable
///    trajectory log behind the paper's Tables I-IV / Fig. 6 analyses, read
///    back by load_trace_jsonl;
///  * Chrome trace format (chrome://tracing or https://ui.perfetto.dev),
///    where each recording thread gets its own lane, so a
///    ParallelOfflineDriver run shows one lane per pool worker with the
///    short runs laid out on the wall clock.
///
/// Recording is thread-safe and cheap: spans append to lock-sharded buffers
/// (shard chosen by thread id, so pool workers almost never share a shard),
/// timestamps come from one steady clock anchored at construction. Thread
/// lane ids are small integers assigned in order of first appearance.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace harmony::obs {

/// Trace identity for one end-to-end request, carried across the wire as an
/// optional trailing "T=<trace>-<span>" token (see core/protocol.hpp).
/// trace_id == 0 means "not sampled": every tracing call site must be a
/// no-op in that case, so unsampled requests pay nothing.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;     ///< id of the current (innermost) span
  std::uint64_t parent_span = 0; ///< 0 at the root
  [[nodiscard]] bool sampled() const noexcept { return trace_id != 0; }
};

/// A fresh process-unique non-zero 64-bit id (for trace ids and span ids):
/// an atomic counter mixed through splitmix64, seeded once per process from
/// the wall clock so ids from different processes do not collide.
[[nodiscard]] std::uint64_t next_trace_id() noexcept;

/// Span names of one objective evaluation: measured, or served from an
/// evaluation cache.
inline constexpr std::string_view kEvalSpan = "search.eval";
inline constexpr std::string_view kCacheSpan = "search.cache";

/// One timed span: a named stage of a sampled request (parse, queue wait,
/// strategy ask, remote eval, ...) or one objective evaluation of a traced
/// search. Span ids tie the stages of one request together across threads —
/// and, via the wall-clock anchor written by write_jsonl, across processes.
/// An evaluation is named kEvalSpan or kCacheSpan, carries the formatted
/// point as its detail and fills strategy/objective/valid.
struct SpanEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string name;            ///< stage name, e.g. "server.tell"
  std::string detail;          ///< free-form (verb, work id, point, ...)
  std::string strategy;        ///< SearchStrategy::name() of the proposer
  double objective = 0.0;      ///< observed objective (infinity when invalid)
  bool valid = true;           ///< run succeeded / configuration feasible
  std::uint32_t thread_lane = 0;
  double t_start_us = 0.0;     ///< microseconds since tracer construction
  double t_end_us = 0.0;       ///< (wall-clock unix microseconds once loaded)

  [[nodiscard]] bool is_eval() const noexcept {
    return name == kEvalSpan || name == kCacheSpan;
  }
  [[nodiscard]] bool cache_hit() const noexcept { return name == kCacheSpan; }
};

/// One objective evaluation as a span of trace `trace_id` with a fresh span
/// id. The tracer fills in the thread lane when it is recorded.
[[nodiscard]] SpanEvent eval_span(std::uint64_t trace_id, std::string strategy,
                                  std::string point, double objective,
                                  bool valid, bool cache_hit, double t_start_us,
                                  double t_end_us);

class SearchTracer {
 public:
  SearchTracer();

  /// Microseconds since construction, from the tracer's steady clock.
  [[nodiscard]] double now_us() const;

  /// Dense lane id of the calling thread (assigned on first use).
  [[nodiscard]] std::uint32_t lane_for_current_thread();

  /// Append one span. `thread_lane` is filled in from the calling thread;
  /// callers set every other field. Thread-safe. Request stages are recorded
  /// only for sampled requests — recording one with trace_id 0 is a
  /// programming error.
  void record(SpanEvent s);

  /// All spans so far, merged across shards and sorted by start time (ties
  /// broken by lane). Thread-safe snapshot.
  [[nodiscard]] std::vector<SpanEvent> spans() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t lanes() const;
  void clear();

  /// Wall-clock (unix) microseconds corresponding to t == 0 on this tracer's
  /// steady clock. Lets a merge tool align traces from different processes.
  [[nodiscard]] double wall_anchor_us() const noexcept { return wall_anchor_us_; }

  /// One JSON object per span, one line each:
  /// {"trace":"<hex>","span":"<hex>","parent":"<hex>","name":...,
  ///  "detail":...,"strategy":...,"objective":N|null,"valid":...,
  ///  "thread":...,"t_start_us":...,"t_end_us":...,"anchor_us":...}
  /// Ids are 16-digit hex strings (JSON numbers carry only 53 bits); a
  /// non-finite objective is null; anchor_us is wall_anchor_us().
  void write_jsonl(std::ostream& os) const;

  /// Chrome trace JSON of this tracer's spans (see write_chrome_trace below).
  void write_chrome_trace(std::ostream& os) const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<SpanEvent> spans;
  };

  std::chrono::steady_clock::time_point epoch_;
  double wall_anchor_us_ = 0.0;
  mutable std::vector<Shard> shards_;
  mutable std::mutex lanes_mutex_;
  std::unordered_map<std::thread::id, std::uint32_t> lane_ids_;
};

/// Parse a SearchTracer::write_jsonl export. Ids are parsed from hex, and
/// each span's times are shifted onto its writer's wall clock by the line's
/// anchor, so spans from different processes of one distributed request
/// line up on a shared axis. Lines that fail to parse are skipped (counted
/// in `*skipped` when non-null), so a truncated trace from a crashed run
/// still loads.
[[nodiscard]] std::vector<SpanEvent> load_trace_jsonl(std::istream& is,
                                                      std::size_t* skipped = nullptr);

/// Chrome trace-viewer JSON of labelled span sets (one per process): one pid
/// per set named by its label, tid = recording lane, one complete ("ph":"X")
/// slice per span with trace/span/parent ids, detail and, for evaluations,
/// strategy/objective/valid in its args. Timestamps are rebased to the
/// earliest span so the viewer opens at t=0.
void write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::vector<SpanEvent>>>& inputs);

}  // namespace harmony::obs
