#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace smallworld::e2e {

/// Latency percentiles that refuse to overstate what a sample supports.
///
/// A percentile q of n samples is reported only when at least
/// kMinBeyond samples lie strictly beyond its nearest rank: with 40 batch
/// timings p75 is the highest percentile that passes, with 1000 route
/// timings p99. Every reported latency carries its sample count.
class Percentiles {
public:
    static constexpr std::size_t kMinBeyond = 10;

    explicit Percentiles(std::vector<double> samples) : sorted_(std::move(samples)) {
        std::sort(sorted_.begin(), sorted_.end());
    }

    [[nodiscard]] std::size_t samples() const noexcept { return sorted_.size(); }

    /// True when nearest-rank percentile q (in (0, 1)) leaves at least
    /// kMinBeyond samples strictly above it.
    [[nodiscard]] static bool supports(std::size_t n, double q) noexcept {
        if (n == 0 || !(q > 0.0 && q < 1.0)) return false;
        const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
        return n - rank >= kMinBeyond;
    }

    /// Nearest-rank percentile q, or nothing when the sample cannot support
    /// it. The median is reported for any non-empty sample.
    [[nodiscard]] std::optional<double> at(double q) const {
        if (sorted_.empty()) return std::nullopt;
        if (q != 0.5 && !supports(sorted_.size(), q)) return std::nullopt;
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted_.size())));
        return sorted_[rank == 0 ? 0 : rank - 1];
    }

    /// The middle sample, or the mean of the two middle ones (0 when empty).
    [[nodiscard]] double median() const {
        const std::size_t n = sorted_.size();
        if (n == 0) return 0.0;
        return n % 2 == 1 ? sorted_[n / 2] : (sorted_[n / 2 - 1] + sorted_[n / 2]) / 2.0;
    }

    /// The highest percentile of a fixed ladder the sample supports (0 when
    /// none does) — the tail every latency table prints beside the median.
    [[nodiscard]] double highest_supported() const noexcept {
        for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
            if (supports(sorted_.size(), q)) return q;
        }
        return 0.0;
    }

private:
    std::vector<double> sorted_;
};

}  // namespace smallworld::e2e
