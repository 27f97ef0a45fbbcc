// Deterministic pseudo-random number generation for reproducible simulation.
//
// All stochastic components of the toolchain (simulator noise, profiler input
// generation, multi-objective search) draw from this generator so that every
// experiment in the repository is exactly reproducible from a seed.
#pragma once

#include <cmath>
#include <cstdint>

namespace teamplay::support {

/// SplitMix64: advance `state` by the golden-ratio increment and return
/// the finalised (stirred) state.  Seeds `Rng` and stirs the router's
/// fingerprints; both outputs are pinned, so the constants never change.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// SplitMix64-seeded xoshiro256** generator.  Deliberately not
/// `std::mt19937_64`: the standard engines are not guaranteed to produce the
/// same stream across library implementations, and reproducibility across
/// toolchains is a hard requirement for the experiment harness.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

    /// Restart as `Rng(seed)`: the Gaussian spare of the old stream is
    /// dropped with the rest of its state.
    void reseed(std::uint64_t seed) {
        have_spare_ = false;
        spare_ = 0.0;
        // SplitMix64 expansion of the seed into the full 256-bit state.
        for (auto& word : state_) word = splitmix64(seed);
    }

    /// Uniform 64-bit word.
    std::uint64_t next() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [0, n).  n must be > 0.
    std::uint64_t below(std::uint64_t n) {
        // Lemire's nearly-divisionless bounded generation.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = -n % n;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t range(std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /// Bernoulli draw with probability p of true.
    bool chance(double p) { return uniform() < p; }

    /// Standard normal via Marsaglia polar method.
    double gaussian() {
        if (have_spare_) {
            have_spare_ = false;
            return spare_;
        }
        double u = 0.0;
        double v = 0.0;
        double s = 0.0;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double factor = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * factor;
        have_spare_ = true;
        return u * factor;
    }

    /// Normal with given mean and standard deviation.
    double gaussian(double mean, double stddev) {
        return mean + stddev * gaussian();
    }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
    bool have_spare_ = false;
    double spare_ = 0.0;
};

}  // namespace teamplay::support
