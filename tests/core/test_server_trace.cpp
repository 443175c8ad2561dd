// End-to-end request tracing through the tuning server: clients append wire
// trace tokens (" T=<trace>-<span>") to sampled requests, the server records
// a server.handle root span plus server.tell / server.ask stage children
// into the ServerOptions tracer, and untraced requests leave no spans at
// all. Also covers the slow-request SLO path: requests over
// ServerOptions::slow_request_us land in the global EventLog and bump the
// StatusRegistry slow_requests counter. The suite runs under TSan in CI
// (name-matched via TraceContext / SlowRequest).

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/net.hpp"
#include "core/server.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace {

using harmony::ServerOptions;
using harmony::TuningServer;
namespace obs = harmony::obs;

std::string trace_token(std::uint64_t trace_id, std::uint64_t span_id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " T=%016" PRIx64 "-%016" PRIx64, trace_id,
                span_id);
  return buf;
}

/// One pipelined session mixing traced and untraced request verbs. Every
/// odd-numbered evaluation carries a token minted from `trace_base`; the
/// root-span count and parent ids are validated by the caller against the
/// tracer. Returns the number of tokens sent (== expected root spans).
int run_traced_session(int port, std::uint64_t trace_base, int evals) {
  harmony::net::Socket sock = harmony::net::connect_loopback(port);
  if (!sock.valid()) {
    ADD_FAILURE() << "connect failed";
    return -1;
  }
  std::string script = "HELLO traced\nPARAM INT x 0 200 1\nSTART " +
                       std::to_string(evals + 4) + "\nFETCH\n";
  int replies = 4;  // OK OK OK CONFIG
  int tokens = 0;
  for (int i = 0; i < evals; ++i) {
    script += "REPORT+FETCH " + std::to_string(50.0 + i);
    if (i % 2 == 1) {
      script += trace_token(trace_base + static_cast<std::uint64_t>(i),
                            /*span_id=*/0x1000 + static_cast<std::uint64_t>(i));
      ++tokens;
    }
    script += "\n";
    ++replies;  // CONFIG
  }
  script += "BYE\n";
  ++replies;  // OK
  if (!sock.send_all(script)) {
    ADD_FAILURE() << "send failed";
    return -1;
  }
  harmony::net::LineReader reader(sock);
  std::string line;
  for (int i = 0; i < replies; ++i) {
    if (!reader.read_line(line)) {
      ADD_FAILURE() << "connection closed at reply " << i;
      return -1;
    }
    if (line.rfind("ERR", 0) == 0) {
      ADD_FAILURE() << "unexpected ERR: " << line;
      return -1;
    }
  }
  return tokens;
}

TEST(TraceContextPlumbing, PipelinedClientsProduceCompleteSpanChains) {
  obs::SearchTracer tracer;
  ServerOptions opts;
  opts.tracer = &tracer;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 64;
  constexpr int kEvals = 8;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<int> tokens_sent{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Distinct per-client trace-id range, so chains never collide.
      const std::uint64_t base = 0x100000ull * (c + 1);
      const int sent = run_traced_session(server.port(), base, kEvals);
      if (sent > 0) tokens_sent.fetch_add(sent);
    });
  }
  for (auto& t : threads) t.join();
  server.stop();

  ASSERT_EQ(tokens_sent.load(), kClients * (kEvals / 2));
  const auto spans = tracer.spans();

  // Index: root span per trace id, children grouped by parent span id.
  std::map<std::uint64_t, const obs::SpanEvent*> roots;
  std::map<std::uint64_t, std::vector<const obs::SpanEvent*>> children;
  for (const auto& s : spans) {
    if (s.name == "server.handle") {
      EXPECT_EQ(roots.count(s.trace_id), 0u) << "duplicate root";
      roots[s.trace_id] = &s;
    } else {
      children[s.parent_span].push_back(&s);
    }
  }
  // Every token produced exactly one root span whose parent is the client's
  // span id from the wire token, with its stage children nested inside.
  ASSERT_EQ(roots.size(), static_cast<std::size_t>(tokens_sent.load()));
  for (const auto& [trace_id, root] : roots) {
    EXPECT_EQ(root->parent_span, 0x1000 + (trace_id & 0xffff))
        << "root's parent must be the client-side span id";
    EXPECT_EQ(root->detail, "REPORT+FETCH");
    ASSERT_NE(root->span_id, 0u);
    const auto it = children.find(root->span_id);
    ASSERT_NE(it, children.end()) << "root has no stage children";
    bool saw_tell = false;
    bool saw_ask = false;
    for (const auto* child : it->second) {
      EXPECT_EQ(child->trace_id, trace_id);
      // Children sit inside the root's bounds. The read ordering in
      // finish_request / record_stage_span guarantees containment under any
      // scheduler interleaving; 0.5 us covers double rounding only.
      EXPECT_GE(child->t_start_us, root->t_start_us - 0.5);
      EXPECT_LE(child->t_end_us, root->t_end_us + 0.5);
      saw_tell = saw_tell || child->name == "server.tell";
      saw_ask = saw_ask || child->name == "server.ask";
    }
    EXPECT_TRUE(saw_tell) << "REPORT+FETCH must record a server.tell stage";
    EXPECT_TRUE(saw_ask) << "REPORT+FETCH must record a server.ask stage";
  }
}

TEST(TraceContextPlumbing, UntracedRequestsRecordNoSpans) {
  obs::SearchTracer tracer;
  ServerOptions opts;
  opts.tracer = &tracer;
  TuningServer server(opts);
  ASSERT_TRUE(server.start());
  // A full session without a single trace token: the span machinery must
  // never fire, even with a tracer installed.
  const int sent = run_traced_session(server.port(), /*trace_base=*/0,
                                      /*evals=*/1);  // i=0 only: no token
  server.stop();
  ASSERT_EQ(sent, 0);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(SlowRequestLog, OverBudgetRequestsLandInEventLogAndStatus) {
  const auto slow_before = obs::StatusRegistry::global()
                               .latency()
                               .slow_requests.load();
  ServerOptions opts;
  opts.slow_request_us = 1;  // everything is over budget
  TuningServer server(opts);
  ASSERT_TRUE(server.start());

  harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(sock.send_all(std::string_view(
      "HELLO slo\nPARAM INT x 0 100 1\nSTART 8\nFETCH\nREPORT+FETCH 1\nBYE\n")));
  harmony::net::LineReader reader(sock);
  std::string line;
  int replies = 0;
  while (reader.read_line(line)) {
    EXPECT_NE(line.rfind("ERR", 0), 0u) << line;
    ++replies;
  }
  EXPECT_EQ(replies, 6);
  server.stop();

  // FETCH and REPORT+FETCH both breached the 1 us SLO.
  const auto slow_after =
      obs::StatusRegistry::global().latency().slow_requests.load();
  EXPECT_GE(slow_after, slow_before + 2);

  // The breaches were logged with their verb, timing, and trace ids.
  bool found = false;
  for (const auto& e : obs::EventLog::global().tail(64)) {
    if (e.component == "server.slow" &&
        e.message.find("REPORT+FETCH") != std::string::npos) {
      found = true;
      EXPECT_NE(e.message.find("trace="), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "no server.slow record for REPORT+FETCH in LOG tail";
}

TEST(SlowRequestLog, UnderBudgetRequestsAreNotLogged) {
  const auto slow_before = obs::StatusRegistry::global()
                               .latency()
                               .slow_requests.load();
  ServerOptions opts;
  opts.slow_request_us = 60'000'000;  // one minute: nothing breaches
  TuningServer server(opts);
  ASSERT_TRUE(server.start());
  harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(sock.send_all(std::string_view(
      "HELLO fast\nPARAM INT x 0 100 1\nSTART 8\nFETCH\nREPORT 1\nBYE\n")));
  harmony::net::LineReader reader(sock);
  for (std::string line; reader.read_line(line);) {
  }
  server.stop();
  EXPECT_EQ(obs::StatusRegistry::global().latency().slow_requests.load(),
            slow_before);
}

/// The per-session latency quantiles reach the STATUS wire verb: a session
/// that served requests publishes p50/p95/p99, and the top-level latency
/// block counts every request verb seen by the process.
TEST(TraceContextPlumbing, StatusCarriesLatencyQuantiles) {
  TuningServer server;
  ASSERT_TRUE(server.start());
  harmony::net::Socket sock = harmony::net::connect_loopback(server.port());
  ASSERT_TRUE(sock.valid());
  std::string script = "HELLO lat\nPARAM INT x 0 100 1\nSTART 40\nFETCH\n";
  for (int i = 0; i < 8; ++i) {
    script += "REPORT+FETCH " + std::to_string(10.0 + i) + "\n";
  }
  script += "STATUS\nBYE\n";
  ASSERT_TRUE(sock.send_all(script));
  harmony::net::LineReader reader(sock);
  std::string json;
  for (std::string line; reader.read_line(line);) {
    if (!line.empty() && line.front() == '{') json = line;
  }
  server.stop();
  ASSERT_FALSE(json.empty());
  const auto doc = obs::json_parse(json);
  ASSERT_TRUE(doc.has_value());
  const auto* sessions = doc->find("sessions");
  ASSERT_TRUE(sessions != nullptr && sessions->is_array());
  ASSERT_FALSE(sessions->as_array().empty());
  const auto& s = sessions->as_array()[0];
  // The session's quantiles publish on the first request, so 9 requests in
  // they are nonzero and ordered.
  EXPECT_GT(s.number_or("p50_us", 0), 0.0);
  EXPECT_GE(s.number_or("p95_us", 0), s.number_or("p50_us", 0));
  EXPECT_GE(s.number_or("p99_us", 0), s.number_or("p95_us", 0));
  const auto* lat = doc->find("latency");
  ASSERT_TRUE(lat != nullptr && lat->is_object());
  EXPECT_GE(lat->number_or("count", 0), 9.0);  // FETCH + 8 REPORT+FETCH
  EXPECT_GT(lat->number_or("p99_us", 0), 0.0);
}

}  // namespace
