// Human-readable formatting and parsing of physical quantities.
//
// The CSL front-end parses budgets written with engineering units ("2ms",
// "0.5mJ") and every report printer uses the formatters so that toolchain
// output reads like the paper's prose.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace teamplay::support {

/// Format seconds with an auto-selected engineering prefix (ns/us/ms/s).
[[nodiscard]] std::string format_time(double seconds);

/// Format joules with an auto-selected engineering prefix (nJ/uJ/mJ/J).
[[nodiscard]] std::string format_energy(double joules);

/// Format watts with an auto-selected engineering prefix (uW/mW/W).
[[nodiscard]] std::string format_power(double watts);

/// Format hertz with an auto-selected engineering prefix (Hz/kHz/MHz/GHz).
[[nodiscard]] std::string format_frequency(double hertz);

/// Format a dimensionless ratio as a percentage with one decimal.
[[nodiscard]] std::string format_percent(double ratio);

/// Parse a time literal such as "2ms", "500us", "1.5s" into seconds.
/// Returns false on malformed input.
[[nodiscard]] bool parse_time(std::string_view text, double& seconds);

/// Parse an energy literal such as "0.5mJ", "200uJ", "1J" into joules.
/// Returns false on malformed input.
[[nodiscard]] bool parse_energy(std::string_view text, double& joules);

/// Parse a count such as a worker number, port or seed: decimal digits, or
/// hex after "0x".  Returns false — leaving `value` untouched — on a sign,
/// whitespace, trailing characters, overflow or a value above `max`.
[[nodiscard]] bool parse_count(std::string_view text, std::uint64_t max,
                               std::uint64_t& value);

}  // namespace teamplay::support
