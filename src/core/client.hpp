#pragma once

/// \file client.hpp
/// Application-side stub for the Harmony tuning server. Mirrors the Session
/// API but runs the Adaptation Controller in a separate server process (or
/// thread), which is how the paper's applications were deployed: "the
/// developers can easily hook up the application with the Active Harmony
/// tuning server" (Section III).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/net.hpp"
#include "core/param_space.hpp"
#include "core/types.hpp"

namespace harmony {

class TuningClient {
 public:
  TuningClient() = default;

  /// Connect to a server on loopback and perform the HELLO exchange.
  [[nodiscard]] bool connect(int port, const std::string& app_name);

  /// Connect with retry: bounded exponential backoff between attempts plus a
  /// per-attempt connect timeout (net::ConnectOptions). Lets a client or
  /// fleet worker start before the server finishes binding its port instead
  /// of dying on the first refused connect.
  [[nodiscard]] bool connect(int port, const std::string& app_name,
                             const net::ConnectOptions& retry);

  /// Register parameters (before start()). Returns false on protocol error.
  [[nodiscard]] bool add_int(const std::string& name, std::int64_t lo,
                             std::int64_t hi, std::int64_t step = 1);
  [[nodiscard]] bool add_real(const std::string& name, double lo, double hi);
  [[nodiscard]] bool add_enum(const std::string& name,
                              std::vector<std::string> choices);

  /// Select the server-side search strategy by registry name, with optional
  /// key=value options (before start()). The server validates against its
  /// StrategyRegistry and replies ERR for unknown names or bad options.
  [[nodiscard]] bool set_strategy(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& options = {});

  /// Bare STRATEGY query: the strategy names the server's registry offers.
  [[nodiscard]] std::optional<std::vector<std::string>> strategies();

  /// Begin the search with an iteration budget.
  [[nodiscard]] bool start(int max_iterations);

  /// Next candidate configuration; nullopt when the server says DONE (or on
  /// a connection error — check ok() to distinguish).
  [[nodiscard]] std::optional<Config> fetch();

  /// Report the objective for the configuration from the last fetch().
  [[nodiscard]] bool report(double objective);

  /// Combined REPORT+FETCH exchange: report the objective for the pending
  /// candidate and receive the next one in a single round trip — half the
  /// per-evaluation latency of report() followed by fetch(). nullopt when
  /// the server says DONE (or on an error — check ok()/last_error()).
  [[nodiscard]] std::optional<Config> report_and_fetch(double objective);

  /// Negotiate the batched framing: bare `BATCH` probe. Returns the server's
  /// per-line batch cap, or nullopt when the peer answers anything else
  /// (e.g. an ERR from a server without the framing) — callers fall back to
  /// report_and_fetch() per evaluation.
  [[nodiscard]] std::optional<int> batch_limit();

  /// Batched REPORT+FETCH: report `objectives` (in fetch order) in one BATCH
  /// line and collect the CONFIG replies. The returned vector holds the next
  /// candidates (fewer than objectives.size() once the budget is exhausted —
  /// the server answers DONE for the tail). nullopt on a protocol error.
  [[nodiscard]] std::optional<std::vector<Config>> report_and_fetch_batch(
      const std::vector<double>& objectives);

  /// Declare this session's tenant (before start()). The server enforces its
  /// per-tenant session quota here: false with last_error() starting
  /// "ERR retry-after" means the quota is full and the connection was shed.
  [[nodiscard]] bool set_tenant(const std::string& name);

  /// Best configuration the server has seen so far.
  [[nodiscard]] std::optional<Config> best();

  /// Polite shutdown.
  void bye();

  // ---- introspection verbs (admin clients, e.g. examples/harmony_top) ----

  /// STATUS: one JSON object describing every live session and pool worker
  /// lane (the server's obs::StatusRegistry snapshot).
  [[nodiscard]] std::optional<std::string> status_json();

  /// METRICS: the server's metrics in Prometheus text exposition format
  /// (the trailing "# EOF" terminator line is stripped).
  [[nodiscard]] std::optional<std::string> metrics_text();

  /// LOG tail n: the most recent structured log events, oldest first, one
  /// JSON object per element.
  [[nodiscard]] std::optional<std::vector<std::string>> log_tail(std::size_t n);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& last_error() const noexcept { return error_; }
  [[nodiscard]] const ParamSpace& space() const noexcept { return space_; }

 private:
  [[nodiscard]] std::optional<std::string> transact(const std::string& line);
  [[nodiscard]] bool expect_ok(const std::string& line);
  [[nodiscard]] std::optional<Config> decode_fetch_reply(const std::string& reply);

  net::Socket socket_;
  std::optional<net::LineReader> reader_;
  ParamSpace space_;
  bool ok_ = false;
  std::string error_;
};

}  // namespace harmony
