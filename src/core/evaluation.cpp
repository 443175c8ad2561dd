#include "core/evaluation.hpp"

#include <cassert>
#include <limits>

namespace harmony {

EvaluationResult EvaluationResult::infeasible() {
  EvaluationResult r;
  r.objective = std::numeric_limits<double>::infinity();
  r.valid = false;
  return r;
}

void EvalCache::check_thread() const {
#ifndef NDEBUG
  if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
  // EvalCache is single-threaded by contract (see header).
  assert(owner_ == std::this_thread::get_id() &&
         "EvalCache used from multiple threads");
#endif
}

std::optional<EvaluationResult> EvalCache::lookup(const Config& c) const {
  scratch_.assign(*space_, c);
  const EvaluationResult* r = lookup(scratch_);
  if (r == nullptr) return std::nullopt;
  return *r;
}

const EvaluationResult* EvalCache::lookup(const PointKey& k) const {
  check_thread();
  const EvaluationResult* r = table_.find(k);
  if (r == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return r;
}

void EvalCache::store(const Config& c, const EvaluationResult& r) {
  scratch_.assign(*space_, c);
  store(scratch_, r);
}

void EvalCache::store(const PointKey& k, const EvaluationResult& r) {
  check_thread();
  table_.insert_or_assign(k, r);
}

void EvalCache::clear() {
  check_thread();
  table_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace harmony
