#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <limits>

#include "core/adversary.h"
#include "geometry/torus.h"
#include "random/splitmix64.h"

namespace smallworld {

GirgObjective::GirgObjective(const Girg& girg, Vertex target, const PhiOptions& options)
    : evaluator_(girg, target, options), girg_(&girg) {}

double GirgObjective::value(Vertex v) const { return evaluator_.value(v); }

void GirgObjective::values(std::span<const Vertex> vertices, double* out) const {
    evaluator_.values(vertices, out);
}

BestNeighbor GirgObjective::best_of(std::span<const Vertex> vertices) const {
    return evaluator_.best_of(vertices);
}

BestNeighbor GirgObjective::best_above(Vertex holder, std::span<const Vertex> row,
                                       double floor) const {
    const Graph& graph = girg_->graph;
    // The span *is* holder's row of girg.graph only if it starts there: a
    // residual, advertised or decoded row lives in other storage.
    if (holder >= graph.num_vertices() || graph.num_vertices() != girg_->num_vertices() ||
        row.data() != graph.neighbors(holder).data() || row.size() != graph.degree(holder)) {
        return Objective::best_above(holder, row, floor);
    }
    if (decisions_graph_ != graph.identity()) {
        decisions_ = {};
        decisions_graph_ = graph.identity();
    }
    const auto [known, fresh] = decisions_.insert(holder);
    if (!fresh) {
        if (known->vertex != kNoVertex) return known->value > floor ? *known : BestNeighbor{};
        if (floor >= known->value) return {};
    }
    const BestNeighbor best = decide(holder, row, floor);
    *known = best.vertex != kNoVertex ? best : BestNeighbor{kNoVertex, floor};
    return best;
}

BestNeighbor GirgObjective::decide(Vertex holder, std::span<const Vertex> row,
                                   double floor) const {
    if (row.size() >= HubRowSummary::kMinDegree) {
        const Graph& graph = girg_->graph;
        if (hubs_ == nullptr || !hubs_->built_from(graph, evaluator_.records())) {
            hubs_ = girg_->hub_rows();
        }
        if (hubs_->built_from(graph, evaluator_.records())) {
            return evaluator_.best_above(*hubs_, holder, row, floor);
        }
    }
    return Objective::best_above(holder, row, floor);
}

GeometricObjective::GeometricObjective(const PointCloud& positions, Vertex target)
    : positions_(&positions), target_(target) {}

double GeometricObjective::value(Vertex v) const {
    if (v == target_) return std::numeric_limits<double>::infinity();
    const double dist = torus_distance(positions_->point(v), positions_->point(target_),
                                       positions_->dim);
    if (dist == 0.0) return std::numeric_limits<double>::max();
    return 1.0 / dist;
}

RelaxedObjective::RelaxedObjective(const Girg& girg, Vertex target, RelaxationKind kind,
                                   double magnitude, std::uint64_t seed,
                                   const PhiOptions& options)
    : evaluator_(girg, target, options), kind_(kind), magnitude_(magnitude), seed_(seed) {}

double RelaxedObjective::value(Vertex v) const {
    if (v == evaluator_.target()) return std::numeric_limits<double>::infinity();
    const double phi = evaluator_.value(v);
    // Noise in [-1, 1], a deterministic function of (seed, v).
    const std::uint64_t h = hash_combine(seed_, v);
    const double noise =
        2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
    switch (kind_) {
        case RelaxationKind::kExponent: {
            const double base = std::min(evaluator_.weight(v), 1.0 / phi);
            // base >= wmin could still be < 1 for wmin < 1; a base below 1
            // would flip the direction of the exponentiation, which is fine:
            // the theorem's condition is symmetric in the exponent sign.
            // LINT-ALLOW(pow): real-valued exponent from the noise draw; this
            // relaxation path only runs in perturbation experiments
            return phi * std::pow(base, magnitude_ * noise);
        }
        case RelaxationKind::kConstantFactor: {
            // LINT-ALLOW(pow): real-valued exponent; perturbation experiments only
            return phi * std::pow(magnitude_, noise);
        }
    }
    return phi;
}

QuantizedObjective::QuantizedObjective(const Girg& girg, Vertex target, int mantissa_bits,
                                       const PhiOptions& options)
    : evaluator_(girg, target, options), mantissa_bits_(mantissa_bits) {
    if (mantissa_bits < 1 || mantissa_bits > 52) {
        throw std::invalid_argument("QuantizedObjective: mantissa_bits in [1, 52]");
    }
}

double QuantizedObjective::quantize(double x, int mantissa_bits) noexcept {
    if (x == 0.0 || !std::isfinite(x)) return x;
    int exponent = 0;
    const double mantissa = std::frexp(x, &exponent);  // in [0.5, 1)
    const double scale = std::ldexp(1.0, mantissa_bits);
    return std::ldexp(std::round(mantissa * scale) / scale, exponent);
}

double QuantizedObjective::value(Vertex v) const {
    if (v == evaluator_.target()) return std::numeric_limits<double>::infinity();
    return quantize(evaluator_.value(v), mantissa_bits_);
}

ClaimedObjective::ClaimedObjective(const Objective& base, const AdversaryState& adversary)
    : base_(&base),
      adversary_(&adversary),
      target_(base.target()),
      target_position_(adversary.positions() != nullptr
                           ? adversary.positions()->point(target_)
                           : nullptr) {}

// Honest claims are the truth: claim_factor() is exactly 1.0 for them and
// x * 1.0 == x, so only byzantine vertices pay for the out-of-line factor.
// The target's value stays the honest +infinity: delivery is decided by
// *arrival*, not by a claim, and inf * factor would be NaN-prone anyway.

double ClaimedObjective::value(Vertex v) const {
    const double phi = base_->value(v);
    if (!adversary_->byzantine(v) || v == target_) return phi;
    return phi * adversary_->claim_factor(v, target_position_);
}

void ClaimedObjective::values(std::span<const Vertex> vertices, double* out) const {
    base_->values(vertices, out);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const Vertex v = vertices[i];
        if (!adversary_->byzantine(v) || v == target_) continue;
        out[i] *= adversary_->claim_factor(v, target_position_);
    }
}

BestNeighbor ClaimedObjective::best_of(std::span<const Vertex> vertices) const {
    scratch_.resize(vertices.size());
    values(vertices, scratch_.data());
    BestNeighbor best;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        if (best.vertex == kNoVertex || scratch_[i] > best.value) {
            best.vertex = vertices[i];
            best.value = scratch_[i];
        }
    }
    return best;
}

}  // namespace smallworld
