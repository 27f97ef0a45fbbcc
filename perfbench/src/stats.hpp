// Order statistics used by every workload.
//
// Percentiles are nearest-rank: the q-th percentile of n samples is the
// ceil(q * n)-th smallest.  A tail percentile is only reported when at
// least `kMinBeyond` samples lie strictly beyond its rank, so a p95 rests
// on at least ten observations worse than it (n >= 200 for p95).
// Quartiles follow Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `q` in (0, 1] over `n` samples.
[[nodiscard]] inline std::size_t nearest_rank(double q, std::size_t n) {
    if (n == 0 || !(q > 0.0) || q > 1.0)
        throw std::invalid_argument("nearest_rank: need n > 0, q in (0,1]");
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile; throws on an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> samples,
                                       double q) {
    const std::size_t rank = nearest_rank(q, samples.size());
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/// Percentile that needs `min_beyond` samples past its rank; nullopt when
/// the sample is too small to support it.
[[nodiscard]] inline std::optional<double> tail_percentile(
    std::vector<double> samples, double q,
    std::size_t min_beyond = kMinBeyond) {
    if (samples.empty()) return std::nullopt;
    const std::size_t rank = nearest_rank(q, samples.size());
    if (samples.size() - rank < min_beyond) return std::nullopt;
    return percentile(std::move(samples), q);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
    if (samples.empty()) throw std::invalid_argument("median: empty sample");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("mean: empty sample");
    double sum = 0.0;
    for (const double sample : samples) sum += sample;
    return sum / static_cast<double>(samples.size());
}

/// Median, over consecutive chunks of `chunk` samples (a short remainder
/// joins the last chunk), of each chunk's tail_percentile(q).  A stretch
/// of outside interference then sways only the chunks it overlaps.
/// nullopt when the samples form no chunk that supports the percentile.
[[nodiscard]] inline std::optional<double> chunked_percentile(
    const std::vector<double>& samples, double q, std::size_t chunk) {
    const std::size_t chunks = chunk > 0 ? samples.size() / chunk : 0;
    std::vector<double> per_chunk;
    for (std::size_t c = 0; c < chunks; ++c) {
        const auto first =
            samples.begin() + static_cast<std::ptrdiff_t>(c * chunk);
        const auto last = c + 1 == chunks
                              ? samples.end()
                              : first + static_cast<std::ptrdiff_t>(chunk);
        const auto value = tail_percentile({first, last}, q);
        if (!value) return std::nullopt;
        per_chunk.push_back(*value);
    }
    if (per_chunk.empty()) return std::nullopt;
    return median(std::move(per_chunk));
}

/// Q1, Q2, Q3 exactly as Python's statistics.quantiles(data, n=4).
[[nodiscard]] inline std::array<double, 3> quartiles(
    std::vector<double> samples) {
    if (samples.size() < 2)
        throw std::invalid_argument("quartiles: need at least 2 samples");
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<long long>(samples.size());
    const long long m = n + 1;
    std::array<double, 3> result{};
    for (long long i = 1; i <= 3; ++i) {
        // Python clamps j into [1, n-1] first, then interpolates (or, for
        // tiny samples, extrapolates) with the exact integer delta.
        const long long j = std::clamp<long long>(i * m / 4, 1, n - 1);
        const long long delta = i * m - j * 4;
        const auto index = static_cast<std::size_t>(j);
        result[static_cast<std::size_t>(i - 1)] =
            (samples[index - 1] * static_cast<double>(4 - delta) +
             samples[index] * static_cast<double>(delta)) /
            4.0;
    }
    return result;
}

}  // namespace perfbench
