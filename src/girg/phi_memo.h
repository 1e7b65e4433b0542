#pragma once

namespace smallworld {

/// Unused: phi is computed afresh from each vertex's record (girg/phi_records.h)
/// and nothing memoizes it, so there is nothing to pool. Kept, with
/// PhiOptions::pool, only so bench_e2e compiles; both go with ROADMAP item 1's
/// benchmark change.
class PhiMemoPool {};

}  // namespace smallworld
