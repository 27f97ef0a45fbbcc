// Unit tests for the support primitives: RNG determinism, the pinned
// FNV-1a and SplitMix64 values, statistics, least-squares fitting, units
// parsing/formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "support/fnv.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

namespace {

using namespace teamplay::support;

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedDropsTheGaussianSpare) {
    // One draw leaves the polar method's second value pending; a reseeded
    // stream must not hand it out.
    Rng reseeded(1);
    (void)reseeded.gaussian();
    reseeded.reseed(7);
    Rng fresh(7);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(reseeded.gaussian(), fresh.gaussian());
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowStaysInRange) {
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
    Rng rng(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
    Rng rng(17);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian());
    EXPECT_NEAR(mean(xs), 0.0, 0.05);
    EXPECT_NEAR(stddev(xs), 1.0, 0.05);
}

// Published FNV-1a 64 and SplitMix64 answers, and the first word of two
// seeded streams.  Wire checksums, store keys and every complex-core byte
// derive from these, so none may ever move.
TEST(Hashes, FnvAndSplitMixKnownAnswers) {
    const auto fnv = [](std::string_view text) {
        return fnv1a(std::span(
            reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
    };
    EXPECT_EQ(fnv(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ULL);
    // Text mixes its bytes, then its length as one little-endian word.
    EXPECT_EQ(Fnv1a{}.mix(std::string_view("foobar")).value,
              Fnv1a{fnv("foobar")}.mix(std::uint64_t{6}).value);

    std::uint64_t state = 0;
    EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(state, 0x9e3779b97f4a7c15ULL);
    EXPECT_EQ(Rng(0).next(), 0x99ec5f36cb75f2b4ULL);
    EXPECT_EQ(Rng(42).next(), 0x15780b2e0c2ec716ULL);
}

TEST(Stats, MeanVarianceKnownValues) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(variance(xs), 4.571428571, 1e-6);
}

TEST(Stats, EmptyInputsAreZero) {
    const std::vector<double> empty;
    EXPECT_EQ(mean(empty), 0.0);
    EXPECT_EQ(variance(empty), 0.0);
    EXPECT_EQ(percentile(empty, 50.0), 0.0);
    EXPECT_EQ(maximum(empty), 0.0);
}

TEST(Stats, PercentileInterpolates) {
    const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, WelchTDetectsSeparatedMeans) {
    std::vector<double> a;
    std::vector<double> b;
    Rng rng(23);
    for (int i = 0; i < 500; ++i) {
        a.push_back(rng.gaussian(0.0, 1.0));
        b.push_back(rng.gaussian(3.0, 1.0));
    }
    EXPECT_GT(std::abs(welch_t(a, b)), 10.0);
}

TEST(Stats, WelchTNearZeroForSameDistribution) {
    std::vector<double> a;
    std::vector<double> b;
    Rng rng(29);
    for (int i = 0; i < 2000; ++i) {
        a.push_back(rng.gaussian(1.0, 2.0));
        b.push_back(rng.gaussian(1.0, 2.0));
    }
    EXPECT_LT(std::abs(welch_t(a, b)), 3.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Stats, MutualInformationOfIndependentIsLow) {
    Rng rng(31);
    std::vector<int> labels;
    std::vector<double> obs;
    for (int i = 0; i < 5000; ++i) {
        labels.push_back(static_cast<int>(rng.below(2)));
        obs.push_back(rng.gaussian());
    }
    EXPECT_LT(mutual_information(labels, obs), 0.05);
}

TEST(Stats, MutualInformationOfDependentIsHigh) {
    Rng rng(37);
    std::vector<int> labels;
    std::vector<double> obs;
    for (int i = 0; i < 5000; ++i) {
        const int label = static_cast<int>(rng.below(2));
        labels.push_back(label);
        obs.push_back(label == 0 ? rng.gaussian(0.0, 0.3)
                                 : rng.gaussian(5.0, 0.3));
    }
    EXPECT_GT(mutual_information(labels, obs), 0.9);
}

TEST(Stats, MutualInformationConstantObservableIsZero) {
    const std::vector<int> labels{0, 1, 0, 1};
    const std::vector<double> obs{2.0, 2.0, 2.0, 2.0};
    EXPECT_EQ(mutual_information(labels, obs), 0.0);
}

TEST(Stats, LeastSquaresRecoversCoefficients) {
    // y = 3*x0 + 5*x1 - 2*x2, exactly determined.
    std::vector<std::vector<double>> rows;
    std::vector<double> ys;
    Rng rng(41);
    for (int i = 0; i < 40; ++i) {
        const double x0 = rng.uniform(0.0, 10.0);
        const double x1 = rng.uniform(0.0, 10.0);
        const double x2 = rng.uniform(0.0, 10.0);
        rows.push_back({x0, x1, x2});
        ys.push_back(3.0 * x0 + 5.0 * x1 - 2.0 * x2);
    }
    const auto coeff = least_squares(rows, ys);
    ASSERT_EQ(coeff.size(), 3u);
    EXPECT_NEAR(coeff[0], 3.0, 1e-8);
    EXPECT_NEAR(coeff[1], 5.0, 1e-8);
    EXPECT_NEAR(coeff[2], -2.0, 1e-8);
}

TEST(Stats, LeastSquaresSingularReturnsZeros) {
    // Two identical columns -> singular normal matrix.
    std::vector<std::vector<double>> rows{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
    const std::vector<double> ys{1.0, 2.0, 3.0};
    const auto coeff = least_squares(rows, ys);
    ASSERT_EQ(coeff.size(), 2u);
    EXPECT_EQ(coeff[0], 0.0);
    EXPECT_EQ(coeff[1], 0.0);
}

TEST(Stats, MapeKnownValue) {
    const std::vector<double> pred{110.0, 90.0};
    const std::vector<double> act{100.0, 100.0};
    EXPECT_NEAR(mape(pred, act), 10.0, 1e-9);
}

TEST(Units, FormatTimeSelectsPrefix) {
    EXPECT_EQ(format_time(0.002), "2 ms");
    EXPECT_EQ(format_time(3.5e-6), "3.5 us");
    EXPECT_EQ(format_time(1.0), "1 s");
}

TEST(Units, FormatEnergySelectsPrefix) {
    EXPECT_EQ(format_energy(0.5e-3), "500 uJ");
    EXPECT_EQ(format_energy(2.5e-3), "2.5 mJ");
    EXPECT_EQ(format_energy(2.0), "2 J");
}

TEST(Units, ParseTimeVariants) {
    double s = 0.0;
    EXPECT_TRUE(parse_time("2ms", s));
    EXPECT_DOUBLE_EQ(s, 0.002);
    EXPECT_TRUE(parse_time("500us", s));
    EXPECT_DOUBLE_EQ(s, 500e-6);
    EXPECT_TRUE(parse_time("1.5s", s));
    EXPECT_DOUBLE_EQ(s, 1.5);
    EXPECT_TRUE(parse_time("3min", s));
    EXPECT_DOUBLE_EQ(s, 180.0);
}

TEST(Units, ParseEnergyVariants) {
    double j = 0.0;
    EXPECT_TRUE(parse_energy("0.5mJ", j));
    EXPECT_DOUBLE_EQ(j, 0.5e-3);
    EXPECT_TRUE(parse_energy("200uJ", j));
    EXPECT_DOUBLE_EQ(j, 200e-6);
    EXPECT_TRUE(parse_energy("1J", j));
    EXPECT_DOUBLE_EQ(j, 1.0);
}

TEST(Units, ParseRejectsGarbage) {
    double v = 0.0;
    EXPECT_FALSE(parse_time("fast", v));
    EXPECT_FALSE(parse_time("2parsecs", v));
    EXPECT_FALSE(parse_energy("lots", v));
    EXPECT_FALSE(parse_energy("3volts", v));
}

TEST(Units, ParseCountAcceptsDecimalOrHexDigitsOnly) {
    constexpr auto kAny = std::numeric_limits<std::uint64_t>::max();
    const struct {
        const char* text;
        std::uint64_t max;
        std::uint64_t expected;
    } accepted[] = {
        {"0", kAny, 0},
        {"42", kAny, 42},
        {"007", kAny, 7},  // decimal, not octal
        {"0x2A", kAny, 42},
        {"0xff", kAny, 255},
        {"0x0", kAny, 0},
        {"65535", 65535, 65535},
        {"18446744073709551615", kAny, kAny},
    };
    for (const auto& row : accepted) {
        std::uint64_t value = 7;
        EXPECT_TRUE(parse_count(row.text, row.max, value)) << row.text;
        EXPECT_EQ(value, row.expected) << row.text;
    }

    const struct {
        const char* text;
        std::uint64_t max;
    } rejected[] = {
        {"", kAny},      {"-1", kAny},    {"+80", kAny},
        {" 80", kAny},   {"80 ", kAny},   {"2x", kAny},
        {"abc", kAny},   {"1.5", kAny},   {"1e3", kAny},
        {"0x", kAny},    {"0x-1", kAny},  {"0x+1", kAny},
        {"0X10", kAny},  {"0xg", kAny},   {"70000", 65535},
        {"0x10000", 65535},
        {"18446744073709551616", kAny},  // 2^64: overflow
        {"0x10000000000000000", kAny},
    };
    for (const auto& row : rejected) {
        std::uint64_t value = 7;
        EXPECT_FALSE(parse_count(row.text, row.max, value)) << row.text;
        EXPECT_EQ(value, 7U) << "rejected input wrote the value: "
                             << row.text;
    }
}

}  // namespace
