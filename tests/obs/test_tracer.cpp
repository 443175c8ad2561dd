#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/harmony.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"

namespace obs = harmony::obs;

namespace {

obs::SpanEvent make_event(obs::SearchTracer& tracer, const std::string& point,
                          double objective, bool cache_hit) {
  const double t = tracer.now_us();
  return obs::eval_span(/*trace_id=*/7, "test-strategy", point, objective,
                        /*valid=*/true, cache_hit, t, tracer.now_us());
}

/// Tiny two-parameter space with a deterministic objective for driver tests.
harmony::ParamSpace small_space() {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("a", 0, 15));
  space.add(harmony::Parameter::Integer("b", 0, 15));
  return space;
}

}  // namespace

TEST(SearchTracer, RecordsAndSortsByStartTime) {
  obs::SearchTracer tracer;
  // Record out of order: later start first.
  auto late = make_event(tracer, "late", 2.0, false);
  late.t_start_us = 100.0;
  late.t_end_us = 110.0;
  auto early = make_event(tracer, "early", 1.0, false);
  early.t_start_us = 5.0;
  early.t_end_us = 9.0;
  tracer.record(late);
  tracer.record(early);

  const auto events = tracer.spans();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "early");
  EXPECT_EQ(events[1].detail, "late");
  EXPECT_EQ(tracer.size(), 2u);

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.lanes(), 0u);
}

TEST(SearchTracer, NowIsMonotonic) {
  obs::SearchTracer tracer;
  const double a = tracer.now_us();
  const double b = tracer.now_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(SearchTracer, JsonlRoundTripsEveryField) {
  // One tracer holds evaluation spans and request spans; the single loader
  // reads every field of both back.
  obs::SearchTracer tracer;
  auto e1 = make_event(tracer, "negrid=8 ntheta=22", 123.5, false);
  e1.strategy = "nelder-mead";
  e1.valid = false;
  auto e2 = make_event(tracer, "weird \"quoted\"\npoint", 0.25, true);
  e2.parent_span = 0xfedcba9876543210ULL;
  obs::SpanEvent req;
  req.trace_id = 0x8000000000000001ULL;  // needs all 64 bits
  req.span_id = 0x1ULL;
  req.name = "server.handle";
  req.detail = "REPORT+FETCH";
  req.t_start_us = tracer.now_us();
  req.t_end_us = req.t_start_us + 12.5;
  tracer.record(e1);
  tracer.record(e2);
  tracer.record(req);

  std::ostringstream os;
  tracer.write_jsonl(os);
  std::istringstream is(os.str());
  std::size_t skipped = 99;
  const auto loaded = obs::load_trace_jsonl(is, &skipped);
  EXPECT_EQ(skipped, 0u);

  const auto spans = tracer.spans();
  ASSERT_EQ(loaded.size(), spans.size());
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const auto& a = spans[i];
    const auto& b = loaded[i];
    EXPECT_EQ(b.trace_id, a.trace_id);
    EXPECT_EQ(b.span_id, a.span_id);
    EXPECT_EQ(b.parent_span, a.parent_span);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.detail, a.detail);
    EXPECT_EQ(b.strategy, a.strategy);
    EXPECT_DOUBLE_EQ(b.objective, a.objective);
    EXPECT_EQ(b.valid, a.valid);
    EXPECT_EQ(b.is_eval(), a.is_eval());
    EXPECT_EQ(b.cache_hit(), a.cache_hit());
    EXPECT_EQ(b.thread_lane, a.thread_lane);
    // Loaded times sit on the writer's wall clock.
    EXPECT_DOUBLE_EQ(b.t_start_us, tracer.wall_anchor_us() + a.t_start_us);
    EXPECT_DOUBLE_EQ(b.t_end_us, tracer.wall_anchor_us() + a.t_end_us);
  }
  EXPECT_EQ(loaded[0].name, "search.eval");
  EXPECT_EQ(loaded[1].name, "search.cache");
  EXPECT_EQ(loaded[2].trace_id, 0x8000000000000001ULL);
}

TEST(SearchTracer, InfiniteObjectiveSerializesAsNull) {
  obs::SearchTracer tracer;
  auto e = make_event(tracer, "bad", std::numeric_limits<double>::infinity(), false);
  e.valid = false;
  tracer.record(e);
  std::ostringstream os;
  tracer.write_jsonl(os);
  const auto v = obs::json_parse(os.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->find("objective")->is_null());
}

TEST(SearchTracer, ChromeTraceIsValidJsonWithLanesAndMetadata) {
  obs::SearchTracer tracer;
  tracer.record(make_event(tracer, "p1", 1.0, false));
  tracer.record(make_event(tracer, "p2", 2.0, true));

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0;
  int metadata = 0;
  for (const auto& ev : events->as_array()) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "X") {
      ++complete;
      EXPECT_GE(ev.number_or("dur", -1), 0.0);
      ASSERT_NE(ev.find("args"), nullptr);
      EXPECT_EQ(ev.find("args")->string_or("strategy", ""), "test-strategy");
    } else if (ph == "M") {
      ++metadata;
      const std::string name = ev.string_or("name", "");
      EXPECT_TRUE(name == "thread_name" || name == "process_name") << name;
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(metadata, 2);  // the process and its one lane
}

TEST(SearchTracer, ConcurrentRecordersGetDistinctLanes) {
  obs::SearchTracer tracer;
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      std::string strategy = "t";
      strategy += std::to_string(t);
      for (int i = 0; i < kEvents; ++i) {
        tracer.record(make_event(tracer, strategy, double(i), false));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(kThreads) * kEvents);
  EXPECT_EQ(tracer.lanes(), static_cast<std::size_t>(kThreads));
  // Each recording thread kept one stable lane.
  const auto events = tracer.spans();
  std::set<std::pair<std::string, std::uint32_t>> lanes_by_thread;
  for (const auto& e : events) lanes_by_thread.insert({e.detail, e.thread_lane});
  EXPECT_EQ(lanes_by_thread.size(), static_cast<std::size_t>(kThreads));
}

TEST(SearchTracer, SerialOfflineDriverTracesEveryProposal) {
  const auto space = small_space();
  obs::SearchTracer tracer;
  harmony::OfflineOptions opts;
  opts.max_runs = 30;
  opts.tracer = &tracer;
  harmony::OfflineDriver driver(space, opts);
  harmony::RandomSearch search(space, 200, 7);
  const auto result = driver.tune(search, [&](const harmony::Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s =
        1.0 + static_cast<double>(space.get_int(c, "a") + space.get_int(c, "b"));
    return r;
  });

  EXPECT_EQ(tracer.size(), driver.history().size());
  EXPECT_EQ(tracer.lanes(), 1u);  // serial driver records from one thread
  const auto events = tracer.spans();
  ASSERT_FALSE(events.empty());
  std::size_t cached = 0;
  std::set<std::uint64_t> span_ids;
  for (const auto& e : events) {
    EXPECT_TRUE(e.is_eval()) << e.name;
    EXPECT_EQ(e.strategy, "random");
    EXPECT_FALSE(e.detail.empty());
    EXPECT_GE(e.t_end_us, e.t_start_us);
    // One traced run is one trace; each evaluation is its own span.
    EXPECT_NE(e.trace_id, 0u);
    EXPECT_EQ(e.trace_id, events.front().trace_id);
    span_ids.insert(e.span_id);
    if (e.cache_hit()) ++cached;
  }
  EXPECT_EQ(span_ids.size(), events.size());
  EXPECT_EQ(static_cast<int>(events.size() - cached), result.runs);
}

TEST(SearchTracer, ParallelDriverProducesOneLanePerPoolThread) {
  const auto space = small_space();
  obs::SearchTracer tracer;
  harmony::engine::ParallelOfflineOptions opts;
  opts.max_runs = 64;
  opts.pool_size = 4;
  opts.use_cache = false;  // every proposal runs -> all workers get busy
  opts.tracer = &tracer;
  harmony::engine::ParallelOfflineDriver driver(space, opts);
  harmony::engine::BatchRandomSearch search(space, 400, 11);
  const auto result = driver.tune(search, [&](const harmony::Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s =
        1.0 + static_cast<double>(space.get_int(c, "a") * space.get_int(c, "b"));
    // A tiny busy-wait so every pool worker takes at least one task.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
    return r;
  });
  ASSERT_EQ(result.runs, 64);

  EXPECT_EQ(tracer.size(), driver.history().size());
  // Events are recorded from the pool workers: no more lanes than workers,
  // and (with 16 batches of 4 queued tasks) almost surely all of them.
  EXPECT_LE(tracer.lanes(), 4u);
  EXPECT_GE(tracer.lanes(), 2u);
  // Pool workers record into the run's one trace.
  const auto spans = tracer.spans();
  for (const auto& e : spans) EXPECT_EQ(e.trace_id, spans.front().trace_id);

  // The Chrome trace export carries the same lanes.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value());
  std::set<int> tids;
  for (const auto& ev : doc->find("traceEvents")->as_array()) {
    if (ev.string_or("ph", "") == "X") {
      tids.insert(static_cast<int>(ev.number_or("tid", -1)));
    }
  }
  EXPECT_EQ(tids.size(), tracer.lanes());
}
