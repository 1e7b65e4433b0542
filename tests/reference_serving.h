#pragma once

#include <span>

#include "distributed/serving.h"

// Test-only oracle: simulate_many as it was before it split into a decide
// phase and a timing phase. It builds every objective of the batch up front
// (fanned out over ServingOptions::threads), keeps them all alive, and calls
// on_start / on_wake from inside the event loop, with its own copies of the
// send chokepoint and of the deque-backed node queue. serving_diff_test
// asserts that the production simulate_many returns exactly the
// ServingResult this does.
namespace smallworld::reference {

[[nodiscard]] ServingResult simulate_many(const GraphView& graph,
                                          const TargetObjectiveFactory& factory,
                                          const DistributedProtocol& protocol,
                                          std::span<const ServingQuery> queries,
                                          const ServingOptions& options = {});

}  // namespace smallworld::reference
