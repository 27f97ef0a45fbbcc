#include "support/units.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace teamplay::support {

namespace {

std::string format_scaled(double value, const char* unit, double scale,
                          const char* prefix) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3g %s%s", value / scale, prefix, unit);
    return buf;
}

std::string format_si(double value, const char* unit) {
    const double mag = std::fabs(value);
    if (mag == 0.0) return format_scaled(value, unit, 1.0, "");
    if (mag < 1e-6) return format_scaled(value, unit, 1e-9, "n");
    if (mag < 1e-3) return format_scaled(value, unit, 1e-6, "u");
    if (mag < 1.0) return format_scaled(value, unit, 1e-3, "m");
    if (mag < 1e3) return format_scaled(value, unit, 1.0, "");
    if (mag < 1e6) return format_scaled(value, unit, 1e3, "k");
    if (mag < 1e9) return format_scaled(value, unit, 1e6, "M");
    return format_scaled(value, unit, 1e9, "G");
}

/// Split "12.5ms" into numeric part and suffix; returns false when the
/// numeric part is malformed or empty.
bool split_literal(std::string_view text, double& value,
                   std::string_view& suffix) {
    std::size_t pos = 0;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == '-' || text[pos] == '+' ||
            text[pos] == 'e' || text[pos] == 'E')) {
        // Treat 'e'/'E' as part of the number only when followed by a digit
        // or a sign; otherwise it begins the unit suffix (e.g. no such unit
        // currently, but keep parsing robust).
        if (text[pos] == 'e' || text[pos] == 'E') {
            if (pos + 1 >= text.size() ||
                (std::isdigit(static_cast<unsigned char>(text[pos + 1])) ==
                     0 &&
                 text[pos + 1] != '-' && text[pos + 1] != '+'))
                break;
        }
        ++pos;
    }
    if (pos == 0) return false;
    const auto first = text.data();
    const auto result = std::from_chars(first, first + pos, value);
    if (result.ec != std::errc{} || result.ptr != first + pos) return false;
    suffix = text.substr(pos);
    return true;
}

}  // namespace

std::string format_time(double seconds) { return format_si(seconds, "s"); }

std::string format_energy(double joules) { return format_si(joules, "J"); }

std::string format_power(double watts) { return format_si(watts, "W"); }

std::string format_frequency(double hertz) { return format_si(hertz, "Hz"); }

std::string format_percent(double ratio) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%", ratio * 100.0);
    return buf;
}

bool parse_time(std::string_view text, double& seconds) {
    double value = 0.0;
    std::string_view suffix;
    if (!split_literal(text, value, suffix)) return false;
    if (suffix == "s" || suffix.empty()) {
        seconds = value;
    } else if (suffix == "ms") {
        seconds = value * 1e-3;
    } else if (suffix == "us") {
        seconds = value * 1e-6;
    } else if (suffix == "ns") {
        seconds = value * 1e-9;
    } else if (suffix == "min") {
        seconds = value * 60.0;
    } else {
        return false;
    }
    return true;
}

bool parse_energy(std::string_view text, double& joules) {
    double value = 0.0;
    std::string_view suffix;
    if (!split_literal(text, value, suffix)) return false;
    if (suffix == "J" || suffix.empty()) {
        joules = value;
    } else if (suffix == "mJ") {
        joules = value * 1e-3;
    } else if (suffix == "uJ") {
        joules = value * 1e-6;
    } else if (suffix == "nJ") {
        joules = value * 1e-9;
    } else if (suffix == "kJ") {
        joules = value * 1e3;
    } else {
        return false;
    }
    return true;
}

bool parse_count(std::string_view text, std::uint64_t max,
                 std::uint64_t& value) {
    int base = 10;
    if (text.starts_with("0x")) {
        base = 16;
        text.remove_prefix(2);
    }
    // from_chars on an unsigned type takes no sign and skips no
    // whitespace, so anything but bare digits fails or leaves a tail.
    std::uint64_t parsed = 0;
    const auto* end = text.data() + text.size();
    const auto result = std::from_chars(text.data(), end, parsed, base);
    if (result.ec != std::errc{} || result.ptr != end || parsed > max)
        return false;
    value = parsed;
    return true;
}

}  // namespace teamplay::support
