#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/torus.h"
#include "girg/phi_records.h"
#include "graph/graph.h"

namespace smallworld {

/// A per-graph summary of the hub rows, for an exact argmax of phi that
/// skips the parts of a hub's row that cannot win (DESIGN.md §6, "Pruned
/// argmax").
///
/// phi(v) = wv / (wmin * n * ||xv - xt||^d) depends only on v's weight and
/// position (Section 2.2), so no entry of a block of row entries with
/// weights at most W and positions in the box B can beat
/// W / (wmin * n * dist(t, B)^d). For every row of degree >= kMinDegree the
/// summary stores one box per run of kFineBlock entries and one per run of
/// kCoarseBlock entries: the maximum weight rounded up to float, then per
/// axis [lo, hi] rounded outward to float. Rows are sorted by id and Morton
/// relabeling makes ids z-ordered, so 16 consecutive entries already cover a
/// small box.
///
/// Built from one graph's rows and one PhiRecords store; Girg::hub_rows()
/// caches it beside the records. built_from() says whether it describes a
/// given graph and the records an evaluator reads.
class HubRowSummary {
public:
    static constexpr std::size_t kMinDegree = 256;   ///< rows summarized
    static constexpr std::size_t kFineBlock = 16;    ///< entries per fine box
    static constexpr std::size_t kCoarseBlock = 256; ///< entries per coarse box

    /// Summarizes `graph`'s rows of degree >= kMinDegree from `records`
    /// (one record per vertex of `graph`); `norm` is the instance's, and
    /// selects the bound's kernel.
    HubRowSummary(const Graph& graph, std::shared_ptr<const PhiRecords> records, Norm norm);

    /// True when this summary describes `graph`'s rows and the records at
    /// `records`. The summary holds its records alive, so an equal pointer
    /// is the same records, not a later allocation at a freed address.
    [[nodiscard]] bool built_from(const Graph& graph, const PhiRecords* records) const noexcept {
        return graph.identity() == graph_identity_ && records == records_.get();
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
    [[nodiscard]] std::size_t boxes() const noexcept { return boxes_.size() / stride_; }
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return rows_.capacity() * sizeof(Row) + boxes_.capacity() * sizeof(float);
    }

    /// The first maximizer of phi over `row`, `holder`'s row in the
    /// summarized graph, among the entries whose phi exceeds `floor`: its
    /// index in `row` and its value, or index kNone when no entry exceeds
    /// the floor. Bit-identical to `best` over the whole row, filtered by
    /// the floor. `best` is the evaluator's argmax kernel, run on the fine
    /// blocks that are not skipped; `ctx` must read the records the summary
    /// was built from (built_from). A row the summary does not cover runs
    /// `best` over the whole row.
    [[nodiscard]] PhiBestLane best_above(const PhiKernelCtx& ctx, PhiBestFn best, Vertex holder,
                                         std::span<const Vertex> row, double floor) const;

private:
    /// A box is 1 + 2 * dim floats: the weight bound, then [lo, hi] per
    /// axis. A row's boxes are its coarse ones, then its fine ones.
    struct Row {
        Vertex vertex;
        std::uint32_t first_box;
    };
    using PrunedBestFn = PhiBestLane (*)(const PhiKernelCtx&, PhiBestFn, const float*,
                                         const Vertex*, std::size_t, double);

    std::uint64_t graph_identity_ = 0;
    std::shared_ptr<const PhiRecords> records_;
    std::size_t stride_ = 1;  ///< floats per box: 1 + 2 * dim
    PrunedBestFn pruned_ = nullptr;
    std::vector<Row> rows_;  ///< sorted by vertex
    std::vector<float> boxes_;
};

}  // namespace smallworld
