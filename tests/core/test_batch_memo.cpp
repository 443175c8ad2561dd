// BatchMemo: the one batch memo of the concurrent backends. Cross-batch
// hits, in-batch repeats (the first copy in batch order runs), the disabled
// mode, and a throwing measure callback.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/controller.hpp"

namespace {

using harmony::BatchMemo;
using harmony::Config;
using harmony::EvalOutcome;
using harmony::Parameter;
using harmony::ParamSpace;

ParamSpace small_space() {
  ParamSpace s;
  s.add(Parameter::Integer("a", 0, 9));
  s.add(Parameter::Integer("b", 0, 9));
  return s;
}

/// Measures each miss as its position in the sequence of all measurements,
/// so an outcome tells which measurement produced it. Records every batch it
/// receives.
struct CountingMeasure {
  std::vector<std::vector<Config>> calls;
  double next = 0.0;

  std::vector<EvalOutcome> operator()(const std::vector<Config>& misses) {
    calls.push_back(misses);
    std::vector<EvalOutcome> out(misses.size());
    for (auto& o : out) o.result.objective = next++;
    return out;
  }
};

TEST(BatchMemo, CrossBatchHitSkipsMeasure) {
  const auto s = small_space();
  const Config a = s.snap({1, 2});
  const Config b = s.snap({3, 4});
  const Config c = s.snap({5, 6});
  BatchMemo memo(s, /*enabled=*/true);
  CountingMeasure m;
  const auto measure = [&m](const std::vector<Config>& x) { return m(x); };

  const auto first = memo.resolve({a, b}, measure);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].ran);
  EXPECT_TRUE(first[1].ran);

  const auto second = memo.resolve({b, c}, measure);
  ASSERT_EQ(m.calls.size(), 2u);
  EXPECT_EQ(m.calls[1], std::vector<Config>{c});  // only the miss is measured
  EXPECT_FALSE(second[0].ran);
  EXPECT_EQ(second[0].result.objective, first[1].result.objective);
  EXPECT_TRUE(second[1].ran);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.coalesced(), 0u);

  // A batch of hits only never calls measure.
  const auto third = memo.resolve({c, a}, measure);
  EXPECT_EQ(m.calls.size(), 2u);
  EXPECT_FALSE(third[0].ran);
  EXPECT_FALSE(third[1].ran);
  EXPECT_EQ(memo.hits(), 3u);
}

TEST(BatchMemo, InBatchRepeatRunsTheFirstCopy) {
  const auto s = small_space();
  const Config a = s.snap({1, 2});
  const Config b = s.snap({3, 4});
  BatchMemo memo(s, /*enabled=*/true);
  CountingMeasure m;
  const auto out = memo.resolve(
      {b, a, b, a, b}, [&m](const std::vector<Config>& x) { return m(x); });

  ASSERT_EQ(m.calls.size(), 1u);
  EXPECT_EQ(m.calls[0], (std::vector<Config>{b, a}));  // distinct, batch order
  ASSERT_EQ(out.size(), 5u);
  EXPECT_TRUE(out[0].ran);
  EXPECT_TRUE(out[1].ran);
  for (const std::size_t i : {2u, 3u, 4u}) EXPECT_FALSE(out[i].ran) << i;
  EXPECT_EQ(out[2].result.objective, 0.0);  // b's first copy was measured first
  EXPECT_EQ(out[3].result.objective, 1.0);
  EXPECT_EQ(out[4].result.objective, 0.0);
  EXPECT_EQ(memo.coalesced(), 3u);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(BatchMemo, DisabledMeasuresEveryElement) {
  const auto s = small_space();
  const Config a = s.snap({1, 2});
  BatchMemo memo(s, /*enabled=*/false);
  CountingMeasure m;
  const auto measure = [&m](const std::vector<Config>& x) { return m(x); };

  const auto first = memo.resolve({a, a}, measure);
  const auto second = memo.resolve({a}, measure);
  ASSERT_EQ(m.calls.size(), 2u);
  EXPECT_EQ(m.calls[0].size(), 2u);
  EXPECT_EQ(m.calls[1].size(), 1u);
  EXPECT_TRUE(first[0].ran);
  EXPECT_TRUE(first[1].ran);
  EXPECT_TRUE(second[0].ran);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.coalesced(), 0u);
}

TEST(BatchMemo, ThrowingMeasureLeavesNoEntry) {
  const auto s = small_space();
  const Config a = s.snap({1, 2});
  BatchMemo memo(s, /*enabled=*/true);
  EXPECT_THROW((void)memo.resolve({a, a},
                                  [](const std::vector<Config>&)
                                      -> std::vector<EvalOutcome> {
                                    throw std::runtime_error("run failed");
                                  }),
               std::runtime_error);

  CountingMeasure m;
  const auto out =
      memo.resolve({a}, [&m](const std::vector<Config>& x) { return m(x); });
  ASSERT_EQ(m.calls.size(), 1u);  // retried: the failure was not memoized
  EXPECT_TRUE(out[0].ran);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(BatchMemo, WrongSizedMeasureThrows) {
  const auto s = small_space();
  BatchMemo memo(s, /*enabled=*/true);
  EXPECT_THROW((void)memo.resolve({s.snap({1, 2}), s.snap({3, 4})},
                                  [](const std::vector<Config>&) {
                                    return std::vector<EvalOutcome>(1);
                                  }),
               std::logic_error);
}

}  // namespace
