// FNV-1a, 64-bit: the one hash behind every content digest in the
// toolchain.
//
// Wire checksums, EvaluationKey fingerprints (and so result-store keys),
// trace-cache keys and routing all derive from these values, and stores
// and peers written by earlier builds must keep matching them: the
// constants and the byte order of every `mix` never change.  test_support
// pins the known answers, test_fingerprint the fingerprints built on them.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace teamplay::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over `bytes`, continuing from `value` (the offset basis starts
/// a fresh hash).
[[nodiscard]] inline std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes,
    std::uint64_t value = kFnvOffsetBasis) {
    for (const std::uint8_t byte : bytes) {
        value ^= byte;
        value *= kFnvPrime;
    }
    return value;
}

/// FNV-1a accumulator over typed fields: a word as its 8 little-endian
/// bytes, a double as its bit pattern (exact, not tolerance-based), and
/// text as its bytes followed by its length, so adjacent strings cannot
/// alias.  Spell integer literals as `std::uint64_t{...}`: a plain
/// `0x...ULL` converts equally well to `double`.
struct Fnv1a {
    std::uint64_t value = kFnvOffsetBasis;

    Fnv1a& mix(std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            value ^= (word >> (8 * byte)) & 0xFFU;
            value *= kFnvPrime;
        }
        return *this;
    }
    Fnv1a& mix(double number) {
        return mix(std::bit_cast<std::uint64_t>(number));
    }
    Fnv1a& mix(std::string_view text) {
        value = fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()},
                      value);
        return mix(std::uint64_t{text.size()});
    }
};

}  // namespace teamplay::support
