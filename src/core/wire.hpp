// Versioned, endian-stable binary wire codec for the service core.
//
// The shard fabric (net/, DESIGN.md §11) and the result store move
// requests, reports, memoised evaluation results and merged telemetry
// between hosts and onto disk; this codec defines the byte format those
// messages travel in.  Six message types are covered — `EvaluationKey`,
// `EvaluationResult` (including full IR programs inside compiled task
// versions), `StageTelemetry`, `BatchStats`, `ScenarioRequest` (program +
// platform + CSL + options, everything a remote shard needs to run the
// scenario) and `ToolchainReport` (the full reply, certificate included)
// — with strict round-trip guarantees:
//
//   decode(encode(x)) == x   field-for-field (doubles bit-exact),
//   encode(decode(b)) == b   byte-for-byte for any accepted buffer.
//
// One deliberate exception: a ScenarioRequest deadline travels as
// *remaining budget* (seconds until the deadline, sampled at encode
// time) rather than as an absolute clock value, so cross-host clock skew
// can never move a deadline.  The decoder re-anchors the budget on its
// own steady clock; for deadline-carrying frames the round trip is
// therefore semantic (budget preserved minus transit time), not
// byte-exact.  Frames without a deadline keep both guarantees in full.
//
// Layout (all integers little-endian; doubles are their IEEE-754 bit
// pattern as a little-endian u64).  The encoder copies each field's host
// bytes whole, so it builds only for a little-endian host (a static_assert
// in wire.cpp); the decoder assembles values byte by byte on any host:
//
//   u32  magic      0x5450_4C57 ("TPLW")
//   u16  version    kVersion — decoder rejects any other value
//   u8   kind       message discriminator (key/result/telemetry/batch/
//                   request/report)
//   ...  payload    message-specific, length-prefixed strings/sequences
//   u64  checksum   FNV-1a 64 of every preceding byte
//
// Strictness: the decoder bounds-checks every read, validates every enum
// and bool byte, rejects int fields outside int range (naming the field),
// rejects sequence counts the remaining bytes cannot hold, requires every
// map (program functions, version maps, RTA, telemetry stages) in
// canonical order (strictly increasing keys: duplicates and unsorted keys
// are refused), rejects trailing garbage, and verifies the trailing
// checksum before interpreting the payload — a truncated or corrupted
// buffer raises WireFormatError, never a partially-filled value.  A valid
// buffer from a different codec generation raises WireVersionError (the
// version field is checked only after the checksum proves the buffer
// intact, so corruption is never misreported as a version skew).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"

namespace teamplay::core::wire {

/// Current wire format generation.  Bump on any layout change.
/// v2: EvaluationCache::Stats gained the result-store counters
/// (store_hits/store_misses/spills/store_rejects) inside BatchStats.
/// v3: shard-fabric frames — ScenarioRequest and ToolchainReport become
/// wire messages (program + platform + CSL + options travel whole), and
/// EvaluationCache::Stats gained the remote-fetch counters
/// (remote_hits/remote_misses) inside BatchStats.
/// v4: admission subsystem — kRequest frames carry the priority class and
/// the optional deadline (as remaining budget, see above); BatchStats
/// frames carry AdmissionStats (per-class admitted/rejected/shed/...
/// counters plus per-remote consecutive-failure gauges).
inline constexpr std::uint16_t kVersion = 4;

/// Base class of every codec error.
class WireError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Truncated buffer, checksum mismatch, bad magic, invalid enum/bool
/// byte, or trailing garbage.
class WireFormatError : public WireError {
public:
    using WireError::WireError;
};

/// Structurally intact message written by a different codec generation.
class WireVersionError : public WireError {
public:
    WireVersionError(std::uint16_t found, std::uint16_t expected)
        : WireError("wire version mismatch: found " + std::to_string(found) +
                    ", expected " + std::to_string(expected)),
          found_(found) {}
    [[nodiscard]] std::uint16_t found() const { return found_; }

private:
    std::uint16_t found_;
};

using Buffer = std::vector<std::uint8_t>;

/// A decoded ScenarioRequest with its own storage.  `ScenarioRequest`
/// borrows its program and platform by pointer, so a request coming off
/// the wire needs something to own them: the frame owns everything the
/// request references, and `request()` returns a view into it.  The frame
/// must outlive every use of that view (a server keeps the frame alive
/// until the scenario's ticket completes).
struct ScenarioRequestFrame {
    ir::Program program;
    platform::Platform platform;
    std::string csl_source;
    std::optional<csl::AppSpec> spec;
    WorkflowOptions options;
    std::string label;
    Priority priority = Priority::kBatch;
    /// Re-anchored on the decoder's steady clock from the wire's
    /// remaining-budget field (see the header comment).
    std::optional<std::chrono::steady_clock::time_point> deadline;

    [[nodiscard]] ScenarioRequest request() const;
};

[[nodiscard]] Buffer encode(const EvaluationKey& key);
[[nodiscard]] Buffer encode(const EvaluationResult& result);
[[nodiscard]] Buffer encode(const StageTelemetry& telemetry);
[[nodiscard]] Buffer encode(const BatchStats& stats);
/// Throws std::invalid_argument when the request has a null program or
/// platform — an unroutable request must fail at the sender, loudly.
[[nodiscard]] Buffer encode(const ScenarioRequest& request);
[[nodiscard]] Buffer encode(const ToolchainReport& report);

[[nodiscard]] EvaluationKey decode_key(std::span<const std::uint8_t> buffer);
[[nodiscard]] EvaluationResult decode_result(
    std::span<const std::uint8_t> buffer);
[[nodiscard]] StageTelemetry decode_telemetry(
    std::span<const std::uint8_t> buffer);
[[nodiscard]] BatchStats decode_batch_stats(
    std::span<const std::uint8_t> buffer);
[[nodiscard]] ScenarioRequestFrame decode_request(
    std::span<const std::uint8_t> buffer);
[[nodiscard]] ToolchainReport decode_report(
    std::span<const std::uint8_t> buffer);

// -- frame streams ------------------------------------------------------------
//
// Length-prefixed framing for byte streams of wire messages (an on-disk
// result-store segment; net/'s TCP transport uses the same u32 prefix):
// u32 LE payload length followed by the payload.  The payload is itself a
// sealed wire message, so stream corruption is caught either by the
// framing bounds here or by the message checksum inside the frame.

/// Append `message` to `stream` as one length-prefixed frame.
void append_frame(Buffer& stream, std::span<const std::uint8_t> message);

/// Read the frame starting at `offset` and advance `offset` past it.
/// Returns the payload view (into `stream`), nullopt at the exact end of
/// the stream, and throws WireFormatError on a torn length or payload —
/// the three cases a segment scanner must distinguish.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> stream, std::size_t& offset);

}  // namespace teamplay::core::wire
