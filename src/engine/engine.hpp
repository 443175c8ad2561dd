#pragma once

/// \file engine.hpp
/// Umbrella header for the parallel evaluation engine:
///
///   harmony::ParamSpace space = ...;
///   harmony::engine::BatchSystematicSampler sweep(space, 8);
///   harmony::engine::ParallelOfflineDriver driver(space, {.pool_size = 8});
///   auto result = driver.tune(sweep, short_run);
///
/// The engine layers on top of the serial core: any SearchStrategy runs
/// unchanged through SequentialBatchAdapter; random/systematic/exhaustive
/// searches and Nelder–Mead get genuinely parallel batch implementations.

#include "engine/batch_strategy.hpp"
#include "engine/parallel_driver.hpp"
#include "engine/surrogate.hpp"
#include "engine/surrogate_backend.hpp"
#include "engine/thread_pool.hpp"
