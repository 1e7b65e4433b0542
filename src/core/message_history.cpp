#include "core/message_history.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/check.h"
#include "core/regime.h"
#include "core/vertex_table.h"

namespace smallworld {

namespace {

/// Candidate exploration edge (from a visited vertex to an unvisited one).
struct Candidate {
    double value;  // objective of the far endpoint
    Vertex from;
    Vertex to;
};

/// The frontier of unexplored edges, popped in (value desc, `to` asc, `from`
/// asc) order; an edge whose `to` has been visited since is dead and skipped.
/// Each first visit records its candidates as one block whose best entry
/// sits at the front; the rest of a block is heap-ordered only once that
/// best is used up, so the many candidates a query never pops are written
/// once and never compared. A heap over blocks, keyed by each block's front
/// entry, finds the global best.
class Frontier {
public:
    void open_block(Vertex from) {
        open_begin_ = entries_.size();
        open_best_ = open_begin_;
        open_from_ = from;
    }
    void add(double value, Vertex to) {
        entries_.push_back({value, to});
        if (ranks_before(entries_.back(), entries_[open_best_])) {
            open_best_ = entries_.size() - 1;
        }
    }
    void close_block() {
        if (entries_.size() == open_begin_) return;
        std::swap(entries_[open_begin_], entries_[open_best_]);
        blocks_.push_back({open_begin_, entries_.size(), open_from_, false});
        heap_.push_back(blocks_.size() - 1);
        std::push_heap(heap_.begin(), heap_.end(), BlockAfter{this});
    }

    /// The best live candidate, left in the frontier; nullopt when none is.
    [[nodiscard]] std::optional<Candidate> top(const auto& visited) {
        while (!heap_.empty()) {
            const Block& block = blocks_[heap_.front()];
            const Entry& entry = entries_[block.begin];
            if (!visited.contains(entry.to)) return Candidate{entry.value, block.from, entry.to};
            pop();  // dead: its far endpoint was visited since
        }
        return std::nullopt;
    }

    /// Removes the candidate top() returned.
    void pop() {
        const std::size_t b = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), BlockAfter{this});
        Block& block = blocks_[b];
        const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(block.begin);
        const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(block.end);
        if (!block.heaped) {
            ++block.begin;
            std::make_heap(first + 1, last, entry_after);
            block.heaped = true;
        } else {
            std::pop_heap(first, last, entry_after);
            --block.end;
        }
        if (block.begin == block.end) {
            heap_.pop_back();
        } else {
            std::push_heap(heap_.begin(), heap_.end(), BlockAfter{this});
        }
    }

private:
    struct Entry {
        double value;
        Vertex to;
    };
    /// entries_[begin, end) with the block's best at begin; behind it the
    /// entries are unordered until `heaped`, a max-heap afterwards.
    struct Block {
        std::size_t begin;
        std::size_t end;
        Vertex from;
        bool heaped;
    };

    static bool ranks_before(const Entry& a, const Entry& b) noexcept {
        if (a.value != b.value) return a.value > b.value;
        return a.to < b.to;
    }
    static bool entry_after(const Entry& a, const Entry& b) noexcept { return ranks_before(b, a); }

    /// Heap order over blocks: by front entry, then `from` (unique per block).
    struct BlockAfter {
        const Frontier* frontier;
        bool operator()(std::size_t a, std::size_t b) const noexcept {
            const Block& x = frontier->blocks_[a];
            const Block& y = frontier->blocks_[b];
            const Entry& ex = frontier->entries_[x.begin];
            const Entry& ey = frontier->entries_[y.begin];
            if (ex.value != ey.value || ex.to != ey.to) return ranks_before(ey, ex);
            return x.from > y.from;
        }
    };

    std::vector<Entry> entries_;
    std::vector<Block> blocks_;
    std::vector<std::size_t> heap_;  // block indexes
    std::size_t open_begin_ = 0;
    std::size_t open_best_ = 0;
    Vertex open_from_ = kNoVertex;
};

class Run {
public:
    Run(const GraphView& graph, const Objective& objective, Vertex source,
        const RoutingOptions& options)
        : graph_(graph),
          regime_(graph, objective, source, options),
          objective_(regime_.objective()) {}

    RoutingResult execute() {
        if (regime_.source_crashed()) return regime_.take();
        for (Vertex current = regime_.holder(); current != objective_.target();) {
            if (visited_.insert(current).second) {
                // (P1) first-visit rule: from a newly visited vertex with a
                // strictly better neighbor, proceed to the best neighbor.
                const BestNeighbor best = record_first_visit(current);
                if (best.vertex != kNoVertex && best.value > objective_.value(current)) {
                    if (!move_to(best.vertex)) return regime_.take();
                    // A misrouting holder may have landed the packet
                    // somewhere other than `best`; resync from the trace.
                    current = regime_.holder();
                    continue;
                }
            }

            // Local optimum (or revisit): jump to the globally best
            // unexplored edge, paying for the walk back through the visited
            // subgraph.
            const auto candidate = frontier_.top(visited_);
            if (!candidate) return regime_.finish(RoutingStatus::kExhausted);
            if (candidate->from != current) {
                if (!walk_within_visited(current, candidate->from)) return regime_.take();
                current = regime_.holder();
                // Hijacked mid-walk: the unexplored edge stays in the
                // frontier for a later retry, and the protocol resumes where
                // the packet landed.
                if (current != candidate->from) continue;
            }
            frontier_.pop();
            if (!move_to(candidate->to)) return regime_.take();
            current = regime_.holder();
        }
        return regime_.finish(RoutingStatus::kDelivered);
    }

private:
    /// Per visited vertex: the last walk search that reached it, and from where.
    struct Visit {
        std::uint32_t walk = 0;
        Vertex parent = kNoVertex;
    };

    /// One values() pass over v's advertised row, on v's first visit: files
    /// every usable neighbor as a frontier candidate and returns the (P1)
    /// argmax, the first maximum over all usable neighbors. A candidate
    /// whose far end is already visited is dead on arrival; top() skips it
    /// like any other dead candidate, which is cheaper than probing the
    /// visited set per neighbor. A neighbor behind a dead link is skipped by
    /// both: the protocol degrades as if the edge had been explored and
    /// backtracked, and delivery is judged on the residual graph. Under an
    /// adversary, phantom links enter with claimed values.
    [[nodiscard]] BestNeighbor record_first_visit(Vertex v) {
        const auto neighbors = regime_.row(v);
        scratch_.resize(neighbors.size());
        objective_.values(neighbors, scratch_.data());
        const FaultView& faults = regime_.faults();
        const bool faulted = faults.active();
        BestNeighbor best;
        frontier_.open_block(v);
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            const Vertex u = neighbors[i];
            if (faulted && !faults.usable(v, u)) continue;
            const double value = scratch_[i];
            if (best.vertex == kNoVertex || value > best.value) best = {u, value};
            frontier_.add(value, u);
        }
        frontier_.close_block();
        return best;
    }

    /// BFS inside the visited subgraph (always connected: it grows along
    /// traversed edges), appending the walk to the path.
    bool walk_within_visited(Vertex from, Vertex to) {
        const std::uint32_t walk = ++walks_;
        *visited_.find(from) = {walk, from};
        queue_.assign(1, from);
        const FaultView& faults = regime_.faults();
        for (std::size_t head = 0; head < queue_.size(); ++head) {
            const Vertex v = queue_[head];
            if (v == to) break;
            for (const Vertex u : graph_.neighbors(v)) {
                // Permanent faults only: the visited subgraph grew along
                // usable edges, so the residual visited subgraph stays
                // connected and the search below reaches `to`.
                if (faults.active() && !faults.usable(v, u)) continue;
                Visit* visit = visited_.find(u);
                if (visit == nullptr || visit->walk == walk) continue;
                *visit = {walk, v};
                queue_.push_back(u);
            }
        }
        walk_path_.clear();
        for (Vertex v = to; v != from;) {
            const Visit& visit = *visited_.find(v);
            GIRG_CHECK(visit.walk == walk, "walk search missed visited vertex ", v);
            walk_path_.push_back(v);
            v = visit.parent;
        }
        for (auto it = walk_path_.rbegin(); it != walk_path_.rend(); ++it) {
            if (!move_to(*it)) return false;
            // A misrouting holder diverted the walk; the caller resyncs from
            // the trace and resumes the protocol at the landing vertex.
            if (regime_.holder() != *it) return true;
        }
        return true;
    }

    /// Sends the message to v through the regime's chokepoint; false when
    /// the route ended there. A misrouting holder may land it elsewhere.
    bool move_to(Vertex v) { return regime_.move(regime_.holder(), v) != kNoVertex; }

    const GraphView& graph_;
    Regime regime_;              // faults, liars, budget and the result
    const Objective& objective_; // the regime's (claimed) objective

    VertexTable<Visit> visited_;
    Frontier frontier_;
    std::uint32_t walks_ = 0;          // walk searches so far (Visit::walk stamps)
    std::vector<Vertex> queue_;        // walk search queue
    std::vector<Vertex> walk_path_;    // walk search result, target first
    std::vector<double> scratch_;      // batched neighbor objectives
};

}  // namespace

RoutingResult MessageHistoryRouter::route(const GraphView& graph, const Objective& objective,
                                          Vertex source,
                                          const RoutingOptions& options) const {
    return Run(graph, objective, source, options).execute();
}

}  // namespace smallworld
