#pragma once

/// \file workloads.hpp
/// The four named workloads. Each fills the Report with its end-to-end
/// metrics (untraced runs) or its per-layer metrics and ledger (traced runs).

#include "common.hpp"

namespace perfbench {

void run_petsc_sles32(const RunOptions& o, Report& report);
void run_pop_pool(const RunOptions& o, Report& report);
void run_gs2_fleet(const RunOptions& o, Report& report);
void run_server_online(const RunOptions& o, Report& report);

}  // namespace perfbench
