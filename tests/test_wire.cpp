// Wire codec (core/wire.hpp): exhaustive field round-trips for all six
// message types (including full IR programs inside compiled task versions
// and whole ScenarioRequest/ToolchainReport frames), property-style
// randomised keys/telemetry with a seeded RNG, strict rejection of
// truncated/corrupted/trailing-garbage buffers, of out-of-range int fields
// and of non-canonical telemetry, the version-mismatch error path,
// resealed mutation sweeps, sequences of minimal elements through every
// count guard, and the pinned length and digest of every message kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "coordination/glue.hpp"
#include "coordination/scheduler.hpp"
#include "core/scenario_engine.hpp"
#include "core/wire.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;
using core::wire::Buffer;

core::EvaluationKey sample_key() {
    core::EvaluationKey key;
    key.structural_fp = 0x0123456789ABCDEFULL;
    key.entry = "uav_detect";
    key.core_class = "big";
    key.opp_index = 3;
    key.kind = core::AnalysisKind::kProfile;
    key.params = 0xFEDCBA9876543210ULL;
    return key;
}

/// FNV-1a 64, mirrored from the codec so tests can re-seal patched frames.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
    std::uint64_t value = 14695981039346656037ULL;
    for (std::size_t i = 0; i < size; ++i) {
        value ^= data[i];
        value *= 1099511628211ULL;
    }
    return value;
}

void reseal(Buffer& buffer) {
    const std::uint64_t checksum =
        fnv1a(buffer.data(), buffer.size() - 8);
    for (int i = 0; i < 8; ++i)
        buffer[buffer.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
}

// -- EvaluationKey ------------------------------------------------------------

TEST(Wire, KeyRoundTripsEveryField) {
    const auto key = sample_key();
    const auto decoded = core::wire::decode_key(core::wire::encode(key));
    EXPECT_EQ(decoded.structural_fp, key.structural_fp);
    EXPECT_EQ(decoded.entry, key.entry);
    EXPECT_EQ(decoded.core_class, key.core_class);
    EXPECT_EQ(decoded.opp_index, key.opp_index);
    EXPECT_EQ(decoded.kind, key.kind);
    EXPECT_EQ(decoded.params, key.params);
    EXPECT_EQ(decoded, key);  // spaceship: full tuple equality
}

TEST(Wire, RandomisedKeysRoundTrip) {
    std::mt19937_64 rng(20260729);  // seeded: failures are reproducible
    std::uniform_int_distribution<std::uint64_t> word;
    std::uniform_int_distribution<int> kind(0, 2);
    std::uniform_int_distribution<int> length(0, 40);
    std::uniform_int_distribution<int> byte(0, 255);
    const auto random_text = [&] {
        std::string text(static_cast<std::size_t>(length(rng)), '\0');
        for (auto& c : text) c = static_cast<char>(byte(rng));
        return text;
    };
    for (int i = 0; i < 200; ++i) {
        core::EvaluationKey key;
        key.structural_fp = word(rng);
        key.entry = random_text();
        key.core_class = random_text();
        key.opp_index = word(rng);
        key.kind = static_cast<core::AnalysisKind>(kind(rng));
        key.params = word(rng);
        const auto buffer = core::wire::encode(key);
        EXPECT_EQ(core::wire::decode_key(buffer), key);
        // encode(decode(b)) == b, byte for byte.
        EXPECT_EQ(core::wire::encode(core::wire::decode_key(buffer)),
                  buffer);
    }
}

// -- EvaluationResult ---------------------------------------------------------

TEST(Wire, ResultWithCompiledFrontRoundTrips) {
    // A real compiled version, so the embedded transformed program is a
    // genuine pass-pipeline product, not a toy tree.
    const auto pill = usecases::make_camera_pill_app();
    const compiler::MultiCriteriaCompiler mcc(pill.program,
                                              pill.platform.cores[0]);
    compiler::PassConfig config;
    config.unroll_factor = 2;
    config.security = compiler::SecurityLevel::kBalance;
    auto version = mcc.compile("pill_compress", config);

    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{version});
    result.leakage = 0.25;

    const auto buffer = core::wire::encode(result);
    const auto decoded = core::wire::decode_result(buffer);
    ASSERT_NE(decoded.front, nullptr);
    ASSERT_EQ(decoded.front->size(), 1U);
    const auto& out = decoded.front->front();
    EXPECT_EQ(out.config.unroll_factor, version.config.unroll_factor);
    EXPECT_EQ(out.config.security, version.config.security);
    EXPECT_EQ(out.config.opp_index, version.config.opp_index);
    EXPECT_EQ(out.analysable, version.analysable);
    EXPECT_EQ(out.wcet_s, version.wcet_s);
    EXPECT_EQ(out.wcec_j, version.wcec_j);
    EXPECT_EQ(out.time_s, version.time_s);
    EXPECT_EQ(out.energy_j, version.energy_j);
    EXPECT_EQ(out.energy_dynamic_j, version.energy_dynamic_j);
    EXPECT_EQ(out.leakage, version.leakage);
    EXPECT_EQ(out.static_instrs, version.static_instrs);
    ASSERT_NE(out.program, nullptr);
    // The transformed program survives byte-for-byte (canonical dump).
    EXPECT_EQ(ir::to_string(*out.program), ir::to_string(*version.program));
    EXPECT_EQ(decoded.leakage, result.leakage);
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

core::EvaluationResult sample_profile_result() {
    core::EvaluationResult result;
    result.profile.function = "uav_detect";
    result.profile.runs = 25;
    result.profile.time_s = {1.5e-3, 2.5e-5, 1.9e-3, 2.0e-3};
    result.profile.energy_j = {3.0e-4, 1.0e-6, 3.2e-4, 3.3e-4};
    result.profile.cycles = {1.2e6, 3.4e3, 1.3e6, 1.31e6};
    result.leakage = 1.75;
    return result;
}

TEST(Wire, ResultWithProfileRoundTrips) {
    const auto result = sample_profile_result();
    const auto buffer = core::wire::encode(result);
    const auto decoded = core::wire::decode_result(buffer);
    EXPECT_EQ(decoded.front, nullptr);
    EXPECT_EQ(decoded.profile.function, result.profile.function);
    EXPECT_EQ(decoded.profile.runs, result.profile.runs);
    EXPECT_EQ(decoded.profile.time_s.mean, result.profile.time_s.mean);
    EXPECT_EQ(decoded.profile.time_s.stddev, result.profile.time_s.stddev);
    EXPECT_EQ(decoded.profile.time_s.p95, result.profile.time_s.p95);
    EXPECT_EQ(decoded.profile.time_s.max, result.profile.time_s.max);
    EXPECT_EQ(decoded.profile.energy_j.mean, result.profile.energy_j.mean);
    EXPECT_EQ(decoded.profile.cycles.max, result.profile.cycles.max);
    EXPECT_EQ(decoded.leakage, result.leakage);
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

// -- StageTelemetry / BatchStats ---------------------------------------------

core::StageTelemetry sample_telemetry() {
    core::StageTelemetry telemetry;
    telemetry.record("parse", 0.001);
    telemetry.record("parse", 0.003);
    telemetry.record("analyse", 0.25);
    telemetry.record("certify", 0.0005);
    return telemetry;
}

TEST(Wire, TelemetryRoundTrips) {
    const auto telemetry = sample_telemetry();
    const auto buffer = core::wire::encode(telemetry);
    const auto decoded = core::wire::decode_telemetry(buffer);
    ASSERT_EQ(decoded.stages().size(), telemetry.stages().size());
    for (const auto& [name, stage] : telemetry.stages()) {
        const auto& out = decoded.stages().at(name);
        EXPECT_EQ(out.count, stage.count);
        EXPECT_EQ(out.total_s, stage.total_s);
        EXPECT_EQ(out.max_s, stage.max_s);
    }
    EXPECT_EQ(core::wire::encode(decoded), buffer);

    const core::StageTelemetry empty;
    EXPECT_TRUE(core::wire::decode_telemetry(core::wire::encode(empty))
                    .empty());
}

TEST(Wire, RandomisedTelemetryRoundTrips) {
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> seconds(0.0, 2.0);
    std::uniform_int_distribution<int> stages(0, 12);
    std::uniform_int_distribution<int> laps(1, 20);
    for (int i = 0; i < 50; ++i) {
        core::StageTelemetry telemetry;
        const int n = stages(rng);
        for (int s = 0; s < n; ++s) {
            const std::string name = "stage_" + std::to_string(s);
            const int k = laps(rng);
            for (int lap = 0; lap < k; ++lap)
                telemetry.record(name, seconds(rng));
        }
        const auto buffer = core::wire::encode(telemetry);
        EXPECT_EQ(core::wire::encode(core::wire::decode_telemetry(buffer)),
                  buffer);
    }
}

core::BatchStats sample_batch_stats() {
    core::BatchStats stats;
    stats.scenarios = 12;
    stats.workers = 5;
    stats.wall_s = 1.25;
    stats.scenarios_per_s = 9.6;
    stats.cache.hits = 100;
    stats.cache.misses = 40;
    stats.cache.evictions = 7;
    stats.cache.store_hits = 21;
    stats.cache.store_misses = 19;
    stats.cache.spills = 9;
    stats.cache.store_rejects = 2;
    stats.cache.remote_hits = 14;
    stats.cache.remote_misses = 3;
    stats.cache.entries = 33;
    stats.cache.resident_cost = 112.5;
    stats.stage_telemetry.record("schedule", 0.125);
    stats.admission.classes[0] = {.submitted = 9,
                                  .admitted = 8,
                                  .rejected = 1,
                                  .shed = 2,
                                  .completed = 5,
                                  .cancelled = 1,
                                  .failed = 0,
                                  .queue_peak = 4};
    stats.admission.classes[2].submitted = 3;
    stats.admission.classes[2].shed = 3;
    stats.admission.remote_failures = {0, 7, 1};
    return stats;
}

TEST(Wire, BatchStatsRoundTrip) {
    const auto stats = sample_batch_stats();
    const auto buffer = core::wire::encode(stats);
    const auto decoded = core::wire::decode_batch_stats(buffer);
    EXPECT_EQ(decoded.scenarios, stats.scenarios);
    EXPECT_EQ(decoded.workers, stats.workers);
    EXPECT_EQ(decoded.wall_s, stats.wall_s);
    EXPECT_EQ(decoded.scenarios_per_s, stats.scenarios_per_s);
    EXPECT_EQ(decoded.cache.hits, stats.cache.hits);
    EXPECT_EQ(decoded.cache.misses, stats.cache.misses);
    EXPECT_EQ(decoded.cache.evictions, stats.cache.evictions);
    EXPECT_EQ(decoded.cache.store_hits, stats.cache.store_hits);
    EXPECT_EQ(decoded.cache.store_misses, stats.cache.store_misses);
    EXPECT_EQ(decoded.cache.spills, stats.cache.spills);
    EXPECT_EQ(decoded.cache.store_rejects, stats.cache.store_rejects);
    EXPECT_EQ(decoded.cache.remote_hits, stats.cache.remote_hits);
    EXPECT_EQ(decoded.cache.remote_misses, stats.cache.remote_misses);
    EXPECT_EQ(decoded.cache.entries, stats.cache.entries);
    EXPECT_EQ(decoded.cache.resident_cost, stats.cache.resident_cost);
    EXPECT_EQ(decoded.stage_telemetry.stages().at("schedule").count, 1U);
    EXPECT_EQ(decoded.admission.classes[0].submitted, 9U);
    EXPECT_EQ(decoded.admission.classes[0].rejected, 1U);
    EXPECT_EQ(decoded.admission.classes[0].shed, 2U);
    EXPECT_EQ(decoded.admission.classes[0].queue_peak, 4U);
    EXPECT_EQ(decoded.admission.classes[2].shed, 3U);
    EXPECT_EQ(decoded.admission.remote_failures,
              (std::vector<std::uint64_t>{0, 7, 1}));
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

// -- strictness ---------------------------------------------------------------

TEST(Wire, EveryTruncationIsRejected) {
    const auto buffer = core::wire::encode(sample_key());
    for (std::size_t length = 0; length < buffer.size(); ++length) {
        const std::span<const std::uint8_t> prefix(buffer.data(), length);
        EXPECT_THROW((void)core::wire::decode_key(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
}

TEST(Wire, EveryByteFlipIsRejected) {
    const auto pristine = core::wire::encode(sample_key());
    for (std::size_t index = 0; index < pristine.size(); ++index) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        // Always a format error (magic or checksum), never a bogus decode
        // and never a misreported version skew.
        EXPECT_THROW((void)core::wire::decode_key(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
}

TEST(Wire, VersionMismatchIsItsOwnError) {
    Buffer future = core::wire::encode(sample_key());
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);  // structurally intact, just from a newer generation
    try {
        (void)core::wire::decode_key(future);
        FAIL() << "expected WireVersionError";
    } catch (const core::wire::WireVersionError& error) {
        EXPECT_EQ(error.found(), core::wire::kVersion + 1);
    }
}

TEST(Wire, MessageKindMismatchIsRejected) {
    const core::StageTelemetry telemetry;
    const auto buffer = core::wire::encode(telemetry);
    EXPECT_THROW((void)core::wire::decode_key(buffer),
                 core::wire::WireFormatError);
    EXPECT_THROW(
        (void)core::wire::decode_batch_stats(core::wire::encode(
            sample_key())),
        core::wire::WireFormatError);
}

TEST(Wire, TrailingGarbageIsRejected) {
    Buffer padded = core::wire::encode(sample_key());
    padded.insert(padded.end() - 8, 0x00);  // extra payload byte
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_key(padded),
                 core::wire::WireFormatError);
}

TEST(Wire, ForgedSequenceCountIsRejected) {
    // Patch the front-count field of a result message to a huge value: the
    // decoder must reject it from the remaining-bytes bound, not allocate.
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>();
    Buffer forged = core::wire::encode(result);
    // Payload starts after the 7-byte header: flags byte, then the count.
    for (std::size_t i = 8; i < 12; ++i) forged[i] = 0xFF;
    reseal(forged);
    EXPECT_THROW((void)core::wire::decode_result(forged),
                 core::wire::WireFormatError);
}

TEST(Wire, NonCanonicalFunctionOrderIsRejected) {
    // The encoder emits program functions in sorted name order; a
    // checksum-valid buffer with names out of order (or duplicated) must
    // be rejected, or encode(decode(b)) == b would silently fail.
    ir::Program program;
    program.memory_words = 64;
    for (const char* name : {"fa", "fb"}) {
        ir::FunctionBuilder b(name, 0);
        b.ret(b.imm(7));
        program.add(b.build());
    }
    compiler::TaskVersion version;
    version.program = std::make_shared<const ir::Program>(program);
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{version});

    Buffer swapped = core::wire::encode(result);
    // The two bodies are identical, so swapping just the 2-byte names
    // yields a structurally valid payload whose names are unsorted.
    bool patched = false;
    for (std::size_t i = 0; i + 1 < swapped.size() - 8; ++i) {
        if (swapped[i] == 'f' && swapped[i + 1] == 'a') {
            swapped[i + 1] = 'b';
            patched = true;
        } else if (patched && swapped[i] == 'f' && swapped[i + 1] == 'b') {
            swapped[i + 1] = 'a';
            break;
        }
    }
    ASSERT_TRUE(patched);
    reseal(swapped);
    EXPECT_THROW((void)core::wire::decode_result(swapped),
                 core::wire::WireFormatError);
}

TEST(Wire, InvalidEnumBytesAreRejected) {
    Buffer bad_kind = core::wire::encode(sample_key());
    // The key's AnalysisKind byte sits 8 bytes before the params u64 and
    // checksum u64 trailer.
    bad_kind[bad_kind.size() - 17] = 0x7F;
    reseal(bad_kind);
    EXPECT_THROW((void)core::wire::decode_key(bad_kind),
                 core::wire::WireFormatError);
}

// -- ScenarioRequest / ToolchainReport frames ---------------------------------

const usecases::UseCaseApp& pill_app() {
    static const usecases::UseCaseApp app =
        usecases::make_camera_pill_app();
    return app;
}

core::ScenarioRequest sample_request() {
    const auto& app = pill_app();
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options.compiler.population = 4;
    request.options.compiler.iterations = 4;
    request.options.compiler.seed = 9;
    request.options.scheduler.seed = 9;
    request.options.scheduler.anneal_iterations = 60;
    request.options.profile_runs = 5;
    request.label = "pill#wire";
    // Non-default priority, no deadline: the v4 tail bytes are exercised
    // by every corruption matrix below while byte-exact round-tripping
    // still holds (only deadline-carrying frames are semantic-only).
    request.priority = core::Priority::kBackground;
    return request;
}

/// Corruption indices for a frame: exhaustive on small frames, and on
/// large ones (request/report frames embed whole IR programs) the full
/// header plus a fixed stride — every structural region still gets hit
/// while the test stays fast.
std::vector<std::size_t> corruption_indices(std::size_t size) {
    std::vector<std::size_t> indices;
    const std::size_t stride = size <= 4096 ? 1 : 131;
    for (std::size_t i = 0; i < size;
         i += (i < 64 || stride == 1 ? 1 : stride))
        indices.push_back(i);
    return indices;
}

TEST(Wire, RequestFrameRoundTripsEveryField) {
    auto request = sample_request();
    request.options.scheduler.objective =
        coordination::Scheduler::Objective::kMakespan;
    request.options.glue_style = coordination::GlueStyle::kRtems;

    const auto buffer = core::wire::encode(request);
    const auto frame = core::wire::decode_request(buffer);
    const auto decoded = frame.request();

    ASSERT_NE(decoded.program, nullptr);
    ASSERT_NE(decoded.platform, nullptr);
    EXPECT_EQ(ir::to_string(*decoded.program),
              ir::to_string(*request.program));
    EXPECT_EQ(decoded.platform->name, request.platform->name);
    ASSERT_EQ(decoded.platform->cores.size(),
              request.platform->cores.size());
    EXPECT_EQ(decoded.platform->cores[0].opps.size(),
              request.platform->cores[0].opps.size());
    EXPECT_EQ(decoded.csl_source, request.csl_source);
    EXPECT_EQ(decoded.spec.has_value(), request.spec.has_value());
    EXPECT_EQ(decoded.label, request.label);
    EXPECT_EQ(decoded.options.compiler.population,
              request.options.compiler.population);
    EXPECT_EQ(decoded.options.compiler.seed,
              request.options.compiler.seed);
    EXPECT_EQ(decoded.options.scheduler.objective,
              request.options.scheduler.objective);
    EXPECT_EQ(decoded.options.scheduler.anneal_iterations,
              request.options.scheduler.anneal_iterations);
    EXPECT_EQ(decoded.options.profile_runs, request.options.profile_runs);
    EXPECT_EQ(decoded.options.glue_style, request.options.glue_style);
    EXPECT_EQ(decoded.priority, core::Priority::kBackground);
    EXPECT_FALSE(decoded.deadline.has_value());
    // encode(decode(b)) == b: the decoded request re-encodes to the exact
    // same frame, so a relayed request is indistinguishable from the
    // original.
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

TEST(Wire, DeadlineCrossesAsBudgetWithinTolerance) {
    using Clock = std::chrono::steady_clock;
    auto request = sample_request();
    request.priority = core::Priority::kInteractive;
    const auto deadline = Clock::now() + std::chrono::milliseconds(250);
    request.deadline = deadline;

    // The budget is sampled at encode time and re-anchored on the decoding
    // host's clock, so the round trip is semantic: same remaining budget
    // up to the encode->decode latency (the documented wire-v4 exception
    // to byte-exactness — time moved between the two samplings).
    const auto frame =
        core::wire::decode_request(core::wire::encode(request));
    EXPECT_EQ(frame.priority, core::Priority::kInteractive);
    ASSERT_TRUE(frame.deadline.has_value());
    const double skew_s =
        std::abs(std::chrono::duration<double>(*frame.deadline - deadline)
                     .count());
    EXPECT_LT(skew_s, 0.05) << "re-anchored deadline drifted " << skew_s;
    EXPECT_EQ(frame.request().deadline, frame.deadline);

    // A deadline that expired before encoding stays expired after decode
    // (negative budgets are legal: the request died in transit and the
    // receiving admission check refuses it).
    request.deadline = Clock::now() - std::chrono::milliseconds(100);
    const auto expired =
        core::wire::decode_request(core::wire::encode(request));
    ASSERT_TRUE(expired.deadline.has_value());
    EXPECT_LT(*expired.deadline, Clock::now());
}

TEST(Wire, NaNDeadlineBudgetIsRejected) {
    auto request = sample_request();
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(100);
    Buffer patched = core::wire::encode(request);
    // Tail layout with a deadline: [budget f64][checksum u64]; overwrite
    // the budget with a quiet NaN and reseal so only the NaN check fires.
    const std::uint64_t nan_bits = 0x7FF8000000000000ULL;
    for (int i = 0; i < 8; ++i)
        patched[patched.size() - 16 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(nan_bits >> (8 * i));
    reseal(patched);
    EXPECT_THROW((void)core::wire::decode_request(patched),
                 core::wire::WireFormatError);
}

TEST(Wire, InvalidPriorityByteIsRejected) {
    Buffer patched = core::wire::encode(sample_request());
    // Tail layout without a deadline: [priority u8][has_deadline bool]
    // [checksum u64]; a class byte beyond the enum must be refused even
    // under a valid checksum.
    ASSERT_EQ(patched[patched.size() - 10],
              static_cast<std::uint8_t>(core::Priority::kBackground));
    patched[patched.size() - 10] = 0x7F;
    reseal(patched);
    EXPECT_THROW((void)core::wire::decode_request(patched),
                 core::wire::WireFormatError);
}

/// Append the codec's little-endian encoding of a `bytes`-wide value.
void append_le(Buffer& out, std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

/// Every offset at which `pattern` occurs in `buffer`.
std::vector<std::size_t> offsets_of(const Buffer& buffer,
                                    const Buffer& pattern) {
    std::vector<std::size_t> offsets;
    for (auto it = buffer.begin();
         (it = std::search(it, buffer.end(), pattern.begin(),
                           pattern.end())) != buffer.end();
         ++it)
        offsets.push_back(static_cast<std::size_t>(it - buffer.begin()));
    return offsets;
}

/// Overwrite the i64 at `offset` with `value`, reseal, and expect the
/// request decoder to reject the frame naming `field`.
void expect_int_field_rejected(Buffer frame, std::size_t offset,
                               std::uint64_t value, const std::string& field) {
    for (std::size_t i = 0; i < 8; ++i)
        frame[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    reseal(frame);
    try {
        (void)core::wire::decode_request(frame);
        FAIL() << field << " = " << value << " was accepted";
    } catch (const core::wire::WireFormatError& error) {
        EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
            << error.what();
    }
}

// An int field carrying a value outside int range used to wrap silently,
// which broke encode(decode(b)) == b for the accepted buffer.
TEST(Wire, OutOfRangePopulationIsRejected) {
    const auto request = sample_request();
    const Buffer frame = core::wire::encode(request);
    // Options start: engine u8, population i64, iterations i64, seed u64.
    Buffer options_head;
    append_le(options_head,
              static_cast<std::uint64_t>(request.options.compiler.engine), 1);
    append_le(options_head,
              static_cast<std::uint64_t>(request.options.compiler.population),
              8);
    append_le(options_head,
              static_cast<std::uint64_t>(request.options.compiler.iterations),
              8);
    append_le(options_head, request.options.compiler.seed, 8);
    const auto at = offsets_of(frame, options_head);
    ASSERT_EQ(at.size(), 1U);
    expect_int_field_rejected(frame, at[0] + 1, 1ULL << 31, "population");
}

TEST(Wire, OutOfRangeRegCountIsRejected) {
    const Buffer frame = core::wire::encode(sample_request());
    // Function header: name (u32 length + bytes), param_count i64, then
    // reg_count i64.
    const ir::Function& fn = *pill_app().program.find("pill_xtea_block");
    Buffer header;
    append_le(header, fn.name.size(), 4);
    for (const char c : fn.name) header.push_back(static_cast<std::uint8_t>(c));
    append_le(header, static_cast<std::uint64_t>(fn.param_count), 8);
    const auto at = offsets_of(frame, header);
    ASSERT_EQ(at.size(), 1U);
    expect_int_field_rejected(frame, at[0] + header.size(), 1ULL << 32,
                              "reg_count");
}

TEST(Wire, RequestWithoutProgramIsUnencodable) {
    core::ScenarioRequest empty;
    EXPECT_THROW((void)core::wire::encode(empty), std::invalid_argument);
}

TEST(Wire, ReportFrameRoundTrips) {
    // A genuine report from a full engine run, so every sub-codec (task
    // graph with version fronts, schedule, certificate proof trees, RTA
    // map, stage laps) carries production-shaped data.
    core::ScenarioEngine engine;
    const auto report = engine.submit(sample_request()).get();

    const auto buffer = core::wire::encode(report);
    const auto decoded = core::wire::decode_report(buffer);
    EXPECT_EQ(decoded.spec.name, report.spec.name);
    EXPECT_EQ(decoded.platform_name, report.platform_name);
    EXPECT_EQ(decoded.schedule.makespan_s, report.schedule.makespan_s);
    EXPECT_EQ(decoded.schedule.entries.size(),
              report.schedule.entries.size());
    EXPECT_EQ(decoded.certificate.to_text(),
              report.certificate.to_text());
    EXPECT_EQ(decoded.glue_code, report.glue_code);
    EXPECT_EQ(decoded.sequential_glue, report.sequential_glue);
    EXPECT_EQ(decoded.fronts.size(), report.fronts.size());
    EXPECT_EQ(decoded.rta.size(), report.rta.size());
    EXPECT_EQ(decoded.stage_laps.size(), report.stage_laps.size());
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

TEST(Wire, RequestEveryTruncationIsRejected) {
    const auto buffer = core::wire::encode(sample_request());
    for (const std::size_t length : corruption_indices(buffer.size())) {
        const std::span<const std::uint8_t> prefix(buffer.data(), length);
        EXPECT_THROW((void)core::wire::decode_request(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
}

TEST(Wire, RequestEveryByteFlipIsRejected) {
    const auto pristine = core::wire::encode(sample_request());
    for (const std::size_t index : corruption_indices(pristine.size())) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        EXPECT_THROW((void)core::wire::decode_request(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
}

TEST(Wire, RequestVersionSkewIsItsOwnError) {
    Buffer future = core::wire::encode(sample_request());
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);
    try {
        (void)core::wire::decode_request(future);
        FAIL() << "expected WireVersionError";
    } catch (const core::wire::WireVersionError& error) {
        EXPECT_EQ(error.found(), core::wire::kVersion + 1);
    }
}

TEST(Wire, RequestTrailingGarbageIsRejected) {
    Buffer padded = core::wire::encode(sample_request());
    padded.insert(padded.end() - 8, 0x00);
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_request(padded),
                 core::wire::WireFormatError);
}

TEST(Wire, RequestKindConfusionIsRejected) {
    // A key frame is not a request, and a request frame is not a key —
    // whatever the envelope claimed.
    EXPECT_THROW(
        (void)core::wire::decode_request(core::wire::encode(sample_key())),
        core::wire::WireFormatError);
    EXPECT_THROW((void)core::wire::decode_key(
                     core::wire::encode(sample_request())),
                 core::wire::WireFormatError);
}

TEST(Wire, ReportCorruptionMatrixIsRejected) {
    core::ScenarioEngine engine;
    const auto report = engine.submit(sample_request()).get();
    const Buffer pristine = core::wire::encode(report);

    for (const std::size_t length : corruption_indices(pristine.size())) {
        const std::span<const std::uint8_t> prefix(pristine.data(),
                                                   length);
        EXPECT_THROW((void)core::wire::decode_report(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
    for (const std::size_t index : corruption_indices(pristine.size())) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        EXPECT_THROW((void)core::wire::decode_report(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
    Buffer future = pristine;
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);
    EXPECT_THROW((void)core::wire::decode_report(future),
                 core::wire::WireVersionError);
    Buffer padded = pristine;
    padded.insert(padded.end() - 8, 0x00);
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_report(padded),
                 core::wire::WireFormatError);
}

// -- resealed mutation sweep --------------------------------------------------
//
// Plain byte flips only ever reach the checksum.  Flipping a bit and
// resealing hands the structural decoder a mutant it must judge on its
// own: every accepted mutant must re-encode to itself, and every
// rejection must be a WireError (never a crash or a foreign exception).

// Odd strides land on every byte offset of 8-byte fields somewhere in the
// frame; together the two sweeps take about 1 s in a Release build.
constexpr std::size_t kRequestSweepStride = 3;
constexpr std::size_t kReportSweepStride = 127;

/// Sweep masks 0x01 and 0x80 over every `stride`-th byte before the
/// checksum; returns how many mutants were accepted.
template <typename Decode, typename Encode>
std::size_t sweep_resealed_mutants(const Buffer& pristine, std::size_t stride,
                                   Decode decode, Encode encode) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i + 8 < pristine.size(); i += stride) {
        for (const std::uint8_t mask : {0x01, 0x80}) {
            Buffer mutant = pristine;
            mutant[i] ^= mask;
            reseal(mutant);
            try {
                const auto decoded = decode(mutant);
                ++accepted;
                EXPECT_TRUE(encode(decoded) == mutant)
                    << "accepted mutant (byte " << i << ", mask "
                    << int{mask} << ") does not re-encode to itself";
            } catch (const core::wire::WireError&) {
            } catch (const std::exception& error) {
                ADD_FAILURE() << "byte " << i << ", mask " << int{mask}
                              << ": non-WireError " << error.what();
            }
        }
    }
    return accepted;
}

/// sample_request() on the UAV app on its apalis-tk1 board.
core::ScenarioRequest uav_request() {
    static const usecases::UseCaseApp app =
        usecases::make_uav_app("apalis-tk1");
    auto request = sample_request();
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    return request;
}

TEST(Wire, ResealedRequestMutantsRoundTripOrRaiseWireError) {
    const Buffer pristine = core::wire::encode(uav_request());
    const auto accepted = sweep_resealed_mutants(
        pristine, kRequestSweepStride,
        [](const Buffer& buffer) {
            return core::wire::decode_request(buffer);
        },
        [](const core::wire::ScenarioRequestFrame& frame) {
            return core::wire::encode(frame.request());
        });
    EXPECT_GT(accepted, 0U);  // the sweep reaches past the decoder's checks
}

TEST(Wire, ResealedReportMutantsRoundTripOrRaiseWireError) {
    core::ScenarioEngine engine;
    const Buffer pristine =
        core::wire::encode(engine.submit(sample_request()).get());
    const auto accepted = sweep_resealed_mutants(
        pristine, kReportSweepStride,
        [](const Buffer& buffer) { return core::wire::decode_report(buffer); },
        [](const core::ToolchainReport& report) {
            return core::wire::encode(report);
        });
    EXPECT_GT(accepted, 0U);
}

// -- pinned bytes -------------------------------------------------------------
//
// Length and FNV-64 digest of one encoding of each message kind.  A
// mismatch means the wire format changed: that needs a kVersion bump, not
// new digests.  Every value is built by hand or by a use-case constructor
// (no analysis runs), so Debug and Release builds encode the same bytes.

/// Two functions that between them use all five node kinds, an If with
/// and without an else branch, and a static and a dynamic loop.
ir::Program five_kind_program() {
    using ir::Instr;
    using ir::Node;
    using ir::Opcode;
    ir::Function leaf;
    leaf.name = "leaf";
    leaf.param_count = 1;
    leaf.reg_count = 2;
    leaf.ret_reg = 1;
    std::vector<ir::NodePtr> leaf_body;
    leaf_body.push_back(Node::block({Instr{Opcode::kAdd, 1, 0, 0}}));
    leaf_body.push_back(Node::make_if(
        1, Node::block({Instr{Opcode::kNeg, 1, 1}}), nullptr));
    leaf.body = Node::seq(std::move(leaf_body));

    ir::Function main_fn;
    main_fn.name = "main_fn";
    main_fn.reg_count = 4;
    main_fn.ret_reg = 3;
    std::vector<ir::NodePtr> body;
    body.push_back(Node::block(
        {Instr{Opcode::kMovImm, 0, ir::kNoReg, ir::kNoReg, ir::kNoReg, -7,
               true},
         Instr{Opcode::kLoad, 1, 0, ir::kNoReg, ir::kNoReg, 12}}));
    body.push_back(Node::make_if(1, Node::block({Instr{Opcode::kMov, 2, 1}}),
                                 Node::block({Instr{Opcode::kMov, 2, 0}})));
    body.push_back(Node::loop(
        5, 8, 2, Node::block({Instr{Opcode::kSelect, 3, 1, 2, 0}})));
    body.push_back(Node::dynamic_loop(
        0, 16, ir::kNoReg, Node::seq({})));
    body.push_back(Node::call("leaf", {2}, 3));
    main_fn.body = Node::seq(std::move(body));

    ir::Program program;
    program.memory_words = 64;
    program.add(std::move(leaf));
    program.add(std::move(main_fn));
    return program;
}

compiler::TaskVersion sample_version() {
    compiler::TaskVersion version;
    version.config.inline_calls_pass = true;
    version.config.licm = true;
    version.config.unroll_factor = 4;
    version.config.security = compiler::SecurityLevel::kLadder;
    version.config.opp_index = 2;
    version.analysable = true;
    version.wcet_s = 1.25e-3;
    version.wcec_j = 3.5e-4;
    version.time_s = 1.0e-3;
    version.energy_j = 3.0e-4;
    version.energy_dynamic_j = 2.5e-4;
    version.leakage = 0.125;
    version.static_instrs = 42;
    version.program = std::make_shared<const ir::Program>(five_kind_program());
    return version;
}

core::EvaluationResult sample_front_result() {
    core::EvaluationResult result;
    result.front = std::make_shared<const std::vector<compiler::TaskVersion>>(
        std::vector<compiler::TaskVersion>{sample_version(),
                                           compiler::TaskVersion{}});
    result.leakage = 0.5;
    return result;
}

contracts::ProofNode proof(contracts::ProofRule rule, double value,
                           double param, std::string note,
                           std::vector<contracts::ProofNode> children = {}) {
    return {rule, value, param, std::move(note), std::move(children)};
}

core::ToolchainReport sample_report() {
    using contracts::ProofRule;
    core::ToolchainReport report;
    report.spec.name = "pill";
    report.spec.platform = "pill-board";
    report.spec.deadline_s = 0.5;
    csl::TaskSpec capture;
    capture.name = "capture";
    capture.entry = "main_fn";
    capture.period_s = 0.5;
    capture.time_budget_s = 2e-3;
    capture.core_class = "m0";
    csl::TaskSpec encrypt = capture;
    encrypt.name = "encrypt";
    encrypt.entry = "leaf";
    encrypt.security_hint = "ladder";
    encrypt.deps = {"capture"};
    report.spec.tasks = {capture, encrypt};
    report.platform_name = "pill-board";

    report.graph.app_name = "pill";
    coordination::Task task;
    task.name = "capture";
    task.entry_fn = "main_fn";
    task.period_s = 0.5;
    task.versions["m0"] = {{1e-3, 2e-4, 0.0, 1, "fold+cse"},
                           {8e-4, 3e-4, 0.25, 2, "unroll4"}};
    task.versions[""] = {{2e-3, 1e-4, 0.0, 0, "profiled"}};
    report.graph.tasks.push_back(task);
    task.name = "encrypt";
    task.entry_fn = "leaf";
    task.deps = {"capture"};
    report.graph.tasks.push_back(task);

    report.schedule.entries = {{"capture", 0, 1, "m0", 0.0, 8e-4, 3e-4, 2},
                               {"encrypt", 1, 0, "", 8e-4, 2.8e-3, 1e-4, 0}};
    report.schedule.makespan_s = 2.8e-3;
    report.schedule.feasible = true;

    report.certificate.app = "pill";
    report.certificate.platform = "pill-board";
    contracts::ContractResult time;
    time.poi = "capture";
    time.property = contracts::Property::kTime;
    time.budget = 2e-3;
    time.analysed = 8e-4;
    time.holds = true;
    time.proof = proof(
        ProofRule::kScale, 8e-4, 1e-8, "cycles at 100 MHz",
        {proof(ProofRule::kSeq, 8e4, 1.0, "body",
               {proof(ProofRule::kInstrCost, 2e4, 1.0, "block"),
                proof(ProofRule::kLoop, 6e4, 8.0, "loop",
                      {proof(ProofRule::kOverhead, 7.5e3, 1.0, "iter")})})});
    contracts::ContractResult leak;
    leak.poi = "encrypt";
    leak.property = contracts::Property::kSecurity;
    leak.budget = 0.5;
    leak.analysed = 0.25;
    leak.measured_only = true;
    leak.proof = proof(ProofRule::kStaticLeak, 0.25, 1.0, "taint");
    report.certificate.results = {time, leak};

    report.glue_code = "/* parallel glue */";
    report.sequential_glue = "/* sequential glue */";
    report.fronts = {{"capture", "m0", {sample_version()}},
                     {"encrypt", "", {}}};
    report.rta[0] = {true, {8e-4, 2.8e-3}};
    report.rta[3] = {false, {}};
    report.stage_laps = {{"parse", 1e-3}, {"analyse", 0.25}};
    return report;
}

std::uint64_t digest(const Buffer& buffer) {
    return fnv1a(buffer.data(), buffer.size());
}

TEST(Wire, PinnedBytesOfEveryMessageKind) {
    auto request = uav_request();
    request.options.glue_style = coordination::GlueStyle::kPosix;
    const struct {
        const char* kind;
        Buffer bytes;
        std::size_t size;
        std::uint64_t fnv;
    } pinned[] = {
        {"key", core::wire::encode(sample_key()), 61, 0x72F617E15490A845ULL},
        {"profile result", core::wire::encode(sample_profile_result()), 142,
         0x9CA3FA0561DDD9E3ULL},
        {"front result", core::wire::encode(sample_front_result()), 701,
         0x2AD654950CB3492BULL},
        {"telemetry", core::wire::encode(sample_telemetry()), 122,
         0xDFD2D463B6C9DCF9ULL},
        {"batch stats", core::wire::encode(sample_batch_stats()), 395,
         0x5E45B0A6A0E25976ULL},
        {"uav-tk1 request", core::wire::encode(request), 8634,
         0xE396E4BED74BD069ULL},
        {"report", core::wire::encode(sample_report()), 1721,
         0x3DFBDF130DA488C8ULL},
    };
    for (const auto& pin : pinned) {
        EXPECT_EQ(pin.bytes.size(), pin.size) << pin.kind;
        EXPECT_EQ(digest(pin.bytes), pin.fnv)
            << pin.kind << ": 0x" << std::hex << digest(pin.bytes);
    }
}

// -- sequences of minimal elements --------------------------------------------
//
// Each sequence-count guard assumes a minimum encoded size per element.  A
// guard above the true minimum rejects valid frames, so every value below
// fills one sequence with many of the smallest elements its type can
// encode (empty strings and sub-sequences, null pointers) and keeps
// everything after it as small as possible.

constexpr std::size_t kMany = 100;

/// `reencode` decodes a frame and encodes the result again; the bytes must
/// come back unchanged.
template <typename Reencode>
void expect_byte_exact(const Buffer& bytes, Reencode reencode,
                       const std::string& what) {
    try {
        EXPECT_TRUE(reencode(bytes) == bytes)
            << what << " re-encodes to different bytes";
    } catch (const core::wire::WireError& error) {
        ADD_FAILURE() << what << ": " << error.what();
    }
}

std::vector<std::string> distinct_names() {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kMany; ++i)
        names.push_back(std::to_string(i));
    return names;
}

TEST(Wire, SequencesOfMinimalElementsRoundTrip) {
    const auto names = distinct_names();
    csl::TaskSpec bare_task;
    bare_task.security_hint = "";

    expect_byte_exact(
        core::wire::encode(core::EvaluationKey{}),
        [](const Buffer& b) {
            return core::wire::encode(core::wire::decode_key(b));
        },
        "key");

    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(kMany);
    expect_byte_exact(
        core::wire::encode(result),
        [](const Buffer& b) {
            return core::wire::encode(core::wire::decode_result(b));
        },
        "result front versions");

    core::BatchStats stats;
    for (const auto& name : names)
        stats.stage_telemetry.merge(name, core::StageTelemetry::PerStage{});
    expect_byte_exact(
        core::wire::encode(stats.stage_telemetry),
        [](const Buffer& b) {
            return core::wire::encode(core::wire::decode_telemetry(b));
        },
        "telemetry stages");
    stats.admission.remote_failures.assign(kMany, 0);
    expect_byte_exact(
        core::wire::encode(stats),
        [](const Buffer& b) {
            return core::wire::encode(core::wire::decode_batch_stats(b));
        },
        "batch stats");

    const auto request_case = [](const std::string& what, auto fill) {
        ir::Program program;
        platform::Platform board;
        core::ScenarioRequest request;
        request.program = &program;
        request.platform = &board;
        fill(program, board, request);
        expect_byte_exact(
            core::wire::encode(request),
            [](const Buffer& b) {
                return core::wire::encode(
                    core::wire::decode_request(b).request());
            },
            "request " + what);
    };
    const auto one_body = [](ir::Program& program, ir::NodePtr body) {
        ir::Function fn;
        fn.body = std::move(body);
        program.add(std::move(fn));
    };
    request_case("functions", [&](auto& program, auto&, auto&) {
        for (const auto& name : names) {
            ir::Function fn;
            fn.name = name;
            program.add(std::move(fn));
        }
    });
    request_case("seq children", [&](auto& program, auto&, auto&) {
        std::vector<ir::NodePtr> children;
        for (std::size_t i = 0; i < kMany; ++i)
            children.push_back(ir::Node::seq({}));
        one_body(program, ir::Node::seq(std::move(children)));
    });
    request_case("block instrs", [&](auto& program, auto&, auto&) {
        one_body(program, ir::Node::block(std::vector<ir::Instr>(kMany)));
    });
    request_case("call args", [&](auto& program, auto&, auto&) {
        one_body(program,
                 ir::Node::call("", std::vector<ir::Reg>(kMany, 0), 0));
    });
    request_case("cores", [&](auto&, auto& board, auto&) {
        board.cores.resize(kMany);
    });
    request_case("opps", [&](auto&, auto& board, auto&) {
        board.cores.resize(1);
        board.cores[0].opps.resize(kMany);
    });
    request_case("spec tasks", [&](auto&, auto&, auto& request) {
        request.spec.emplace().tasks.assign(kMany, bare_task);
    });
    request_case("spec deps", [&](auto&, auto&, auto& request) {
        request.spec.emplace().tasks = {bare_task};
        request.spec->tasks[0].deps.assign(kMany, "");
    });

    const auto report_case = [](const std::string& what, auto fill) {
        core::ToolchainReport report;
        fill(report);
        expect_byte_exact(
            core::wire::encode(report),
            [](const Buffer& b) {
                return core::wire::encode(core::wire::decode_report(b));
            },
            "report " + what);
    };
    report_case("spec tasks", [&](auto& report) {
        report.spec.tasks.assign(kMany, bare_task);
    });
    report_case("graph tasks",
                [&](auto& report) { report.graph.tasks.resize(kMany); });
    report_case("graph deps", [&](auto& report) {
        report.graph.tasks.resize(1);
        report.graph.tasks[0].deps.assign(kMany, "");
    });
    report_case("version map", [&](auto& report) {
        report.graph.tasks.resize(1);
        for (const auto& name : names) report.graph.tasks[0].versions[name];
    });
    report_case("version choices", [&](auto& report) {
        report.graph.tasks.resize(1);
        report.graph.tasks[0].versions[""].resize(kMany);
    });
    report_case("schedule entries", [&](auto& report) {
        report.schedule.entries.resize(kMany);
    });
    report_case("contract results", [&](auto& report) {
        report.certificate.results.resize(kMany);
    });
    report_case("proof children", [&](auto& report) {
        report.certificate.results.resize(1);
        report.certificate.results[0].proof.children.resize(kMany);
    });
    report_case("fronts", [&](auto& report) { report.fronts.resize(kMany); });
    report_case("front versions", [&](auto& report) {
        report.fronts.resize(1);
        report.fronts[0].versions.resize(kMany);
    });
    report_case("rta map", [&](auto& report) {
        for (std::size_t core = 0; core < kMany; ++core) report.rta[core];
    });
    report_case("rta responses", [&](auto& report) {
        report.rta[0].response_times.assign(kMany, 0.0);
    });
    report_case("stage laps",
                [&](auto& report) { report.stage_laps.resize(kMany); });
}

// -- canonical telemetry ------------------------------------------------------
//
// A decoded StageTelemetry is rebuilt by folding each stage into an empty
// table, so a frame listing stages out of order, twice, or with values the
// fold would change must be refused: accepting it would break
// encode(decode(b)) == b.

/// Stages "a" (0.5 s) and "b" (0.25 s).
core::StageTelemetry two_stages() {
    core::StageTelemetry telemetry;
    telemetry.record("a", 0.5);
    telemetry.record("b", 0.25);
    return telemetry;
}

/// Offset of the one-byte stage name `name` (after its u32 length).
std::size_t name_offset(const Buffer& frame, char name) {
    const Buffer pattern{1, 0, 0, 0, static_cast<std::uint8_t>(name)};
    const auto at = offsets_of(frame, pattern);
    EXPECT_EQ(at.size(), 1U) << name;
    return at.empty() ? 0 : at[0] + 4;
}

/// Every non-canonical variant of a frame holding two_stages().
std::vector<Buffer> non_canonical_variants(const Buffer& frame) {
    const std::size_t a = name_offset(frame, 'a');
    const std::size_t b = name_offset(frame, 'b');
    Buffer swapped = frame;
    swapped[a] = 'b';
    swapped[b] = 'a';
    Buffer duplicated = frame;
    duplicated[b] = 'a';
    // "a"'s max_s (the f64 after its count and total) with the sign bit
    // set: folded into an empty table it would come back as +0.0.
    Buffer negative_max = frame;
    negative_max[a + 1 + 8 + 8 + 7] ^= 0x80;
    std::vector<Buffer> variants{swapped, duplicated, negative_max};
    for (auto& variant : variants) reseal(variant);
    return variants;
}

TEST(Wire, NonCanonicalTelemetryIsRejected) {
    const auto frame = core::wire::encode(two_stages());
    ASSERT_EQ(core::wire::encode(core::wire::decode_telemetry(frame)), frame);
    for (const auto& variant : non_canonical_variants(frame))
        EXPECT_THROW((void)core::wire::decode_telemetry(variant),
                     core::wire::WireFormatError);
}

TEST(Wire, NonCanonicalBatchStatsTelemetryIsRejected) {
    core::BatchStats stats = sample_batch_stats();
    stats.stage_telemetry = two_stages();
    const auto frame = core::wire::encode(stats);
    ASSERT_EQ(core::wire::encode(core::wire::decode_batch_stats(frame)),
              frame);
    for (const auto& variant : non_canonical_variants(frame))
        EXPECT_THROW((void)core::wire::decode_batch_stats(variant),
                     core::wire::WireFormatError);
}

}  // namespace
