#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/vertex_table.h"
#include "girg/girg.h"
#include "girg/hub_rows.h"
#include "girg/phi_evaluator.h"
#include "graph/graph.h"

namespace smallworld {

/// The objective function phi that greedy routing maximizes in every hop
/// (Section 2.2). The single semantic requirement, needed for correctness
/// of every protocol, is that the target vertex globally maximizes the
/// objective; implementations return +infinity at the target.
///
/// An Objective instance is bound to one target; evaluating phi(v) uses only
/// v's address (position, weight) and the target's position — the locality
/// property the paper emphasizes.
///
/// Concurrency contract: objectives may memoize per-vertex values and, in
/// GirgObjective, per-holder argmax decisions behind a const interface, so
/// a single instance must not be shared across threads. Construct one
/// objective per worker; phi is a pure function of the vertex attributes,
/// so independent instances for the same target always agree.
class Objective {
public:
    virtual ~Objective() = default;

    /// phi(v); larger is better; +infinity iff v is the target.
    [[nodiscard]] virtual double value(Vertex v) const = 0;

    [[nodiscard]] virtual Vertex target() const = 0;

    /// Batched evaluation: out[i] = value(vertices[i]). One virtual call per
    /// neighbor list instead of one per neighbor; subclasses override with a
    /// non-virtual inner loop.
    virtual void values(std::span<const Vertex> vertices, double* out) const {
        for (std::size_t i = 0; i < vertices.size(); ++i) out[i] = value(vertices[i]);
    }

    /// First maximizer of phi over `vertices` in list order (ties toward the
    /// earlier entry — the smaller id on sorted CSR neighbor lists), with its
    /// value. {kNoVertex, 0.0} for an empty list.
    [[nodiscard]] virtual BestNeighbor best_of(std::span<const Vertex> vertices) const {
        BestNeighbor best;
        for (const Vertex u : vertices) {
            const double value_u = value(u);
            if (best.vertex == kNoVertex || value_u > best.value) {
                best.vertex = u;
                best.value = value_u;
            }
        }
        return best;
    }

    /// First maximizer of phi over `row`, the row `holder` sees, among the
    /// entries whose phi exceeds `floor`, with its value; {kNoVertex, 0.0}
    /// when none does. That is best_of(row) filtered by the floor, which is
    /// what this default computes. An objective may answer from knowing
    /// whose row it is instead of evaluating every entry: GirgObjective
    /// skips the blocks of its graph's hub rows that cannot win. A
    /// decorator that does not forward this entry gets the full scan of its
    /// own best_of.
    [[nodiscard]] virtual BestNeighbor best_above(Vertex holder, std::span<const Vertex> row,
                                                  double floor) const {
        (void)holder;
        const BestNeighbor best = best_of(row);
        if (best.vertex == kNoVertex || !(best.value > floor)) return {};
        return best;
    }
};

/// The paper's canonical objective phi(v) = wv / (wmin * n * ||xv - xt||^d),
/// i.e. "forward to the acquaintance most likely to know the target":
/// for alpha < infinity maximizing phi is equivalent to maximizing the
/// connection probability p_{v,t}. Evaluation is delegated to a memoizing
/// PhiEvaluator, so the batched entry points never touch a vtable per
/// neighbor.
class GirgObjective final : public Objective {
public:
    /// `options` selects the evaluator kernel (scalar or SIMD) and an
    /// optional cohort-shared memo pool; the default auto-dispatches.
    GirgObjective(const Girg& girg, Vertex target, const PhiOptions& options = {});

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return evaluator_.target(); }
    void values(std::span<const Vertex> vertices, double* out) const override;
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override;
    /// When `row` is `holder`'s own row of girg.graph (the row a lockstep
    /// walk sees under an inactive regime on a resident view), the answer
    /// is decided once per holder and remembered: the argmax is a function
    /// of (holder, floor) alone. A found neighbor is the row's first
    /// maximizer and answers every floor; "none above f" answers every
    /// floor >= f. The decisions are dropped when girg.graph's identity
    /// changes. A decision on a row of degree >= HubRowSummary::kMinDegree
    /// is pruned (girg/hub_rows.h); the summary is fetched on the first
    /// pruned call, so an objective that never prunes never builds or
    /// locks for it. Any other row (a residual or advertised row, a
    /// pack's) gets the full scan and is never remembered.
    [[nodiscard]] BestNeighbor best_above(Vertex holder, std::span<const Vertex> row,
                                          double floor) const override;

    /// Holders whose decision this objective remembers.
    [[nodiscard]] std::size_t decided_holders() const noexcept { return decisions_.size(); }

private:
    /// best_above over `holder`'s own row, not remembered.
    [[nodiscard]] BestNeighbor decide(Vertex holder, std::span<const Vertex> row,
                                      double floor) const;

    PhiEvaluator evaluator_;
    const Girg* girg_;
    mutable std::shared_ptr<const HubRowSummary> hubs_;  // fetched on first use
    /// Per holder: the first maximizer and its value, or {kNoVertex, f}
    /// when no entry beats the floor f it was decided at.
    mutable VertexTable<BestNeighbor> decisions_;
    mutable std::uint64_t decisions_graph_ = 0;  ///< Graph::identity they hold for
};

/// Degree-agnostic geometric objective 1/||xv - xt|| (torus L-infinity) —
/// the "geometric greedy process" of [9,10] discussed in Section 4, which
/// ignores weights and is far less robust. Used as the comparison series in
/// EXP-S4. Works on any point cloud, not just GIRGs.
class GeometricObjective final : public Objective {
public:
    GeometricObjective(const PointCloud& positions, Vertex target);
    GeometricObjective(const Girg& girg, Vertex target)
        : GeometricObjective(girg.positions, target) {}

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return target_; }
    void values(std::span<const Vertex> vertices, double* out) const override;

private:
    const PointCloud* positions_;
    Vertex target_;
};

/// How the relaxed objective perturbs phi (Theorem 3.5).
enum class RelaxationKind {
    /// phi~(v) = phi(v) * min{wv, phi(v)^{-1}}^{xi_v}, xi_v uniform in
    /// [-exponent, exponent] — the shape of Condition (2). The theorem
    /// requires exponent = o(1); constant exponents violate it and slow the
    /// routing down (Remark 10.1), which EXP-T35 demonstrates.
    kExponent,
    /// phi~(v) = c_v * phi(v) with c_v uniform in [1/factor, factor] —
    /// bounded constant-factor noise, the mildest relaxation.
    kConstantFactor,
};

/// A deterministic pseudo-random perturbation of a base objective: the noise
/// for vertex v is derived by hashing (seed, v), so phi~ is a genuine
/// function of the vertex (consistent across queries) as Theorem 3.5
/// requires, yet "adversarially" scrambles the ordering of near-equal
/// neighbors. The unperturbed base phi comes from a memoized PhiEvaluator.
class RelaxedObjective final : public Objective {
public:
    RelaxedObjective(const Girg& girg, Vertex target, RelaxationKind kind,
                     double magnitude, std::uint64_t seed, const PhiOptions& options = {});

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return evaluator_.target(); }
    void values(std::span<const Vertex> vertices, double* out) const override;

private:
    PhiEvaluator evaluator_;
    RelaxationKind kind_;
    double magnitude_;
    std::uint64_t seed_;
};

/// Greedy routing with *quantized addresses*: the practical face of
/// Theorem 3.5. Real deployments (e.g. the hyperbolic internet embeddings
/// of [11]) ship coordinates with a handful of bits; this objective rounds
/// phi(v) to `mantissa_bits` bits of relative precision, i.e. a
/// multiplicative (1 ± 2^-mantissa_bits) perturbation — squarely inside the
/// theorem's constant-factor relaxation class for any bits >= 1.
class QuantizedObjective final : public Objective {
public:
    QuantizedObjective(const Girg& girg, Vertex target, int mantissa_bits,
                       const PhiOptions& options = {});

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return evaluator_.target(); }
    void values(std::span<const Vertex> vertices, double* out) const override;

    /// Rounds x to the given number of mantissa bits (exposed for tests).
    [[nodiscard]] static double quantize(double x, int mantissa_bits) noexcept;

private:
    PhiEvaluator evaluator_;
    int mantissa_bits_;
};

class AdversaryState;  // core/adversary.h

/// The objective *as advertised* under a byzantine adversary
/// (core/adversary.h): honest vertices report their true phi, byzantine
/// vertices report phi scaled by their claim factor (weight lie times the
/// claimed-position distance distortion). This is the decorating seam every
/// router takes in adversarial mode — protocols maximize what vertices
/// *claim*, which is precisely how an inflating liar becomes an attraction
/// sink. With an inactive adversary every claim factor is exactly 1.0 and
/// phi~ == phi bit for bit.
///
/// Wraps (does not own) a base objective; same per-thread concurrency
/// contract as the base.
class ClaimedObjective final : public Objective {
public:
    ClaimedObjective(const Objective& base, const AdversaryState& adversary);

    [[nodiscard]] double value(Vertex v) const override;
    [[nodiscard]] Vertex target() const override { return target_; }
    void values(std::span<const Vertex> vertices, double* out) const override;
    /// One batched values() pass, then the first maximum.
    [[nodiscard]] BestNeighbor best_of(std::span<const Vertex> vertices) const override;

private:
    const Objective* base_;
    const AdversaryState* adversary_;
    Vertex target_;
    const double* target_position_;  // null when the adversary has no positions
    // best_of's claimed values.
    mutable std::vector<double> scratch_;
};

}  // namespace smallworld
