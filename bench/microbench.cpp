// Micro-benchmarks (google-benchmark) for the performance-critical pieces
// of the library itself: the tuning kernel's propose/report cycle, the real
// numerical kernels, the simulated-machine models, and the wire protocol.

#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/harmony.hpp"
#include "core/net.hpp"
#include "minigs2/minigs2.hpp"
#include "minipetsc/minipetsc.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

namespace {

void BM_NelderMeadCycle(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  harmony::ParamSpace space;
  for (std::size_t i = 0; i < dims; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    space.add(harmony::Parameter::Integer(name, 0, 1000));
  }
  harmony::NelderMeadOptions opts;
  opts.max_restarts = 1000000;  // never stop during the benchmark
  harmony::NelderMead nm(space, opts);
  for (auto _ : state) {
    auto proposal = nm.propose();
    if (!proposal) break;
    harmony::EvaluationResult r;
    double v = 0;
    for (const auto& val : proposal->values) {
      const double x = static_cast<double>(std::get<std::int64_t>(val));
      v += (x - 500) * (x - 500);
    }
    r.objective = v;
    nm.report(*proposal, r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NelderMeadCycle)->Arg(2)->Arg(8)->Arg(32);

void BM_EvalCacheLookup(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("a", 0, 1000));
  space.add(harmony::Parameter::Integer("b", 0, 1000));
  harmony::EvalCache cache(space);
  harmony::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    cache.store(space.random_config(rng), harmony::EvaluationResult{});
  }
  const auto probe = space.random_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(probe));
  }
}
BENCHMARK(BM_EvalCacheLookup);

// Shared space for the eval hot-path cases: the paper's Fig. 6 GS2 space.
harmony::ParamSpace hotpath_space() {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  return space;
}

// Index-space key derivation alone (scratch reuse: no allocation).
void BM_PointKeyDerive(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(5);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 256; ++i) configs.push_back(space.random_config(rng));
  harmony::PointKey key;
  std::size_t i = 0;
  for (auto _ : state) {
    key.assign(space, configs[i++ & 255]);
    benchmark::DoNotOptimize(key.hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointKeyDerive);

// The string key the index space replaced, for comparison.
void BM_StringKeyDerive(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(5);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 256; ++i) configs.push_back(space.random_config(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.key(configs[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StringKeyDerive);

// Full lookup+store cycle on the flat PointKey cache (the EvalCache hot
// path): one store and repeated lookups per lattice point.
void BM_FlatCacheLookupStore(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(7);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.random_config(rng));
  harmony::EvalCache cache(space);
  harmony::PointKey key;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = configs[i++ & 511];
    key.assign(space, c);
    if (cache.lookup(key) == nullptr) {
      cache.store(key, harmony::EvaluationResult{});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatCacheLookupStore);

// The representation this PR replaced: unordered_map<string, result> keyed
// by ParamSpace::key. Kept as the comparison baseline for the gate.
void BM_StringKeyedCacheLookupStore(benchmark::State& state) {
  const auto space = hotpath_space();
  harmony::Rng rng(7);
  std::vector<harmony::Config> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.random_config(rng));
  std::unordered_map<std::string, harmony::EvaluationResult> cache;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& c = configs[i++ & 511];
    const std::string key = space.key(c);
    if (cache.find(key) == cache.end()) {
      cache.emplace(key, harmony::EvaluationResult{});
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StringKeyedCacheLookupStore);

void BM_SpMV(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto A = minipetsc::laplacian2d(n, n);
  minipetsc::Vec x(static_cast<std::size_t>(n) * n, 1.0);
  minipetsc::Vec y;
  for (auto _ : state) {
    A.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * A.nnz());
}
BENCHMARK(BM_SpMV)->Arg(64)->Arg(128)->Arg(256);

void BM_CgSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto A = minipetsc::laplacian2d(n, n);
  const minipetsc::PcJacobi pc(A);
  minipetsc::Vec b(static_cast<std::size_t>(n) * n, 1.0);
  for (auto _ : state) {
    minipetsc::Vec x;
    const auto res = minipetsc::cg_solve(A, b, x, pc);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_CgSolve)->Arg(16)->Arg(32)->Arg(64);

// One Fig. 2b evaluation's partition analysis: the 21,025-row matrix over
// 32 ranks. Arg 0 is the even split; arg 1 a skewed split whose rank k ends
// at n (k+1)^2 / 32^2, so the ranks run from 20 to 1,294 rows.
void BM_PartitionAnalyze(benchmark::State& state) {
  constexpr int n = 21025;
  constexpr int nranks = 32;
  const auto A = minipetsc::variable_band_spd(n, 4, 120);
  std::vector<int> skewed;
  for (int k = 1; k < nranks; ++k) skewed.push_back(n * k * k / (nranks * nranks));
  const auto part = state.range(0) == 0
                        ? minipetsc::RowPartition::even(n, nranks)
                        : minipetsc::RowPartition::from_boundaries(n, nranks, skewed);
  for (auto _ : state) {
    const auto stats = minipetsc::analyze(A, part);
    benchmark::DoNotOptimize(stats.halo_counts.size());
  }
}
BENCHMARK(BM_PartitionAnalyze)->Arg(0)->Arg(1);

void BM_CavityResidual(benchmark::State& state) {
  minipetsc::CavityProblem p;
  p.nx = 33;
  p.ny = 33;
  const auto F = p.residual();
  const minipetsc::Vec x = p.initial_guess();
  minipetsc::Vec f;
  for (auto _ : state) {
    F(x, f);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * p.nx * p.ny);
}
BENCHMARK(BM_CavityResidual);

void BM_PopBlockDecomposition(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  for (auto _ : state) {
    const minipop::BlockDecomposition d(grid, {180, 100}, 480);
    benchmark::DoNotOptimize(d.ocean_blocks());
  }
}
BENCHMARK(BM_PopBlockDecomposition);

void BM_PopStepModel(benchmark::State& state) {
  const minipop::PopGrid grid = minipop::PopGrid::production();
  const minipop::PopModel model(grid);
  const auto machine = simcluster::presets::nersc_sp3(60, 8);
  const auto space = minipop::make_param_space(32);
  const auto mult =
      minipop::evaluate_multipliers(space, minipop::default_config(space));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.step_time(machine, 8, {180, 100}, mult).total_s);
  }
}
BENCHMARK(BM_PopStepModel);

void BM_Gs2StepModel(benchmark::State& state) {
  const minigs2::Gs2Model model;
  const auto machine = simcluster::presets::seaborg(8, 16);
  minigs2::Resolution res;
  res.ntheta = 26;
  res.negrid = 16;
  const minigs2::Layout layout("yxles");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model
            .step_time(machine, 128, res, layout, minigs2::CollisionModel::None)
            .step_s);
  }
}
BENCHMARK(BM_Gs2StepModel);

void BM_ProtocolRoundtrip(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("n", 1, 64));
  space.add(harmony::Parameter::Real("alpha", 0.0, 2.0));
  space.add(harmony::Parameter::Enum("layout", {"lxyes", "yxles"}));
  const auto config = space.default_config();
  for (auto _ : state) {
    const auto line = harmony::proto::encode_config(space, config);
    const auto msg = harmony::proto::parse_line("CONFIG " + line);
    benchmark::DoNotOptimize(harmony::proto::decode_config(space, msg->args));
  }
}
BENCHMARK(BM_ProtocolRoundtrip);

// The zero-copy variant of the same round trip: append-into-buffer encode,
// MessageView tokenize, string_view decode. Steady state allocates nothing.
void BM_ProtocolRoundtripView(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("n", 1, 64));
  space.add(harmony::Parameter::Real("alpha", 0.0, 2.0));
  space.add(harmony::Parameter::Enum("layout", {"lxyes", "yxles"}));
  const auto config = space.default_config();
  std::string line;
  harmony::proto::MessageView msg;
  for (auto _ : state) {
    line.assign("CONFIG ");
    harmony::proto::encode_config(space, config, line);
    benchmark::DoNotOptimize(harmony::proto::parse_line(line, msg));
    benchmark::DoNotOptimize(harmony::proto::decode_config(space, msg));
  }
}
BENCHMARK(BM_ProtocolRoundtripView);

void BM_ProtocolEncodeConfigAppend(benchmark::State& state) {
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("n", 1, 64));
  space.add(harmony::Parameter::Real("alpha", 0.0, 2.0));
  space.add(harmony::Parameter::Enum("layout", {"lxyes", "yxles"}));
  const auto config = space.default_config();
  std::string out;
  for (auto _ : state) {
    out.clear();
    harmony::proto::encode_config(space, config, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ProtocolEncodeConfigAppend);

void BM_ProtocolParseLineView(benchmark::State& state) {
  const std::string line = "REPORT+FETCH 3.14159 extra fields to tokenize";
  harmony::proto::MessageView msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harmony::proto::parse_line(line, msg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolParseLineView);

// LineReader batch tokenization over a real (unix-domain) socket: one write
// of `batch` lines, then read_line(out) pulls them back out of the buffer.
// Items processed = lines, so the per-line cost is directly visible.
void BM_LineReaderTokenize(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  harmony::net::Socket writer(fds[0]);
  harmony::net::Socket reader_sock(fds[1]);
  harmony::net::LineReader reader(reader_sock);
  std::string payload;
  for (int i = 0; i < batch; ++i) {
    payload += "REPORT+FETCH 1.25 trailing-field\n";
  }
  std::string line;
  for (auto _ : state) {
    if (!writer.send_all(payload)) {
      state.SkipWithError("send failed");
      return;
    }
    for (int i = 0; i < batch; ++i) {
      if (!reader.read_line(line)) {
        state.SkipWithError("read_line failed");
        return;
      }
      benchmark::DoNotOptimize(line.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LineReaderTokenize)->Arg(1)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
