#pragma once

#include <cmath>
#include <cstdint>
#include <random>

#include "core/check.h"

#include "random/splitmix64.h"
#include "random/xoshiro.h"

namespace smallworld {

class RngStreams;

/// Convenience façade over Xoshiro256pp with the handful of draws the
/// generators and routers need. All methods are cheap and allocation-free.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x42ULL) : engine_(seed) {}
    explicit Rng(Xoshiro256pp engine) : engine_(engine) {}

    Xoshiro256pp& engine() noexcept { return engine_; }

    /// Uniform in [0, 1).
    double uniform() noexcept {
        // 53 random mantissa bits; standard trick to avoid the bias of
        // generate_canonical on some standard library implementations.
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Uniform in [lo, hi).
    double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
    /// (unbiased, typically a single 128-bit multiply per draw).
    std::uint64_t uniform_index(std::uint64_t bound) noexcept {
        GIRG_DCHECK(bound > 0, "uniform_index bound");
        __uint128_t m = static_cast<__uint128_t>(engine_()) * bound;
        std::uint64_t low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
            while (low < threshold) {
                m = static_cast<__uint128_t>(engine_()) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    bool bernoulli(double p) noexcept {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    /// Poisson draw with mean `lambda` (delegates to <random>).
    std::uint64_t poisson(double lambda) {
        std::poisson_distribution<std::uint64_t> dist(lambda);
        return dist(engine_);
    }

    double exponential(double rate) noexcept {
        GIRG_DCHECK(rate > 0, "exponential rate=", rate);
        double u = uniform();
        // uniform() < 1, but guard log(0) anyway.
        if (u <= 0.0) u = 0x1.0p-53;
        return -std::log1p(-u) / rate;
    }

    /// Number of Bernoulli(p) failures before the next success (>= 0).
    /// For tiny p this is the geometric-jump primitive that makes the fast
    /// GIRG sampler expected-linear: instead of flipping a coin per candidate
    /// pair, jump directly to the next accepted candidate.
    std::uint64_t geometric_skip(double p) noexcept {
        GIRG_DCHECK(p > 0.0 && p <= 1.0, "geometric_skip p=", p);
        if (p >= 1.0) return 0;
        double u = uniform();
        if (u <= 0.0) u = 0x1.0p-53;
        return skip_from_uniform(u, std::log1p(-p));
    }

    /// The skip geometric_skip(p) derives from its uniform draw u (u > 0),
    /// given log_q = log1p(-p) for p < 1. Exposed so a caller drawing many
    /// skips for one p evaluates log1p once and gets the identical values.
    [[nodiscard]] static std::uint64_t skip_from_uniform(double u, double log_q) noexcept {
        const double skip = std::floor(std::log(u) / log_q);
        // Guard against overflow for absurdly small p.
        if (skip >= 9.2e18) return std::uint64_t{9'200'000'000'000'000'000ULL};
        return static_cast<std::uint64_t>(skip);
    }

    /// Derive an independent child generator (for parallel work items).
    Rng split() noexcept { return Rng(engine_.split()); }

    /// Derive a family of counter-indexed child streams rooted at one draw
    /// from this generator (defined below; consumes exactly one draw).
    RngStreams streams() noexcept;

private:
    Xoshiro256pp engine_;
};

/// Family of independent child RNG streams rooted at a single 64-bit value:
/// stream(k) = Rng(hash_combine(root, k)) is a pure function of (root, k).
/// Parallel work items indexed by a deterministic counter therefore produce
/// identical results at any thread count and in any execution order — the
/// scheme used by both the trial runner and the parallel edge sampler.
class RngStreams {
public:
    explicit RngStreams(std::uint64_t root) noexcept : root_(root) {}

    [[nodiscard]] Rng stream(std::uint64_t k) const noexcept {
        return Rng(stream_seed(k));
    }

    /// The raw 64-bit value stream(k) is seeded from. Exposed so keyed-coin
    /// schemes (core/fault.h) can hash further sub-keys off one stream
    /// without materializing a generator.
    [[nodiscard]] std::uint64_t stream_seed(std::uint64_t k) const noexcept {
        return hash_combine(root_, k);
    }

private:
    std::uint64_t root_;
};

inline RngStreams Rng::streams() noexcept { return RngStreams(engine_()); }

}  // namespace smallworld
