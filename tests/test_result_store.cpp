// ResultStore (core/result_store.hpp): round-trip byte identity through
// the segment format, warm start across store instances, a store of an
// already indexed key that encodes (allocates) nothing, spill-on-evict
// and shutdown-flush through an attached EvaluationCache, and the whole
// corruption surface — truncated final frame, byte-flipped payload, stale
// frame and segment versions, empty and foreign files — each skipped and
// counted, never fatal, with recomputed results byte-identical to the
// originals.  Ends with warm-started engines (and two engines sharing one
// store concurrently) proving zero recomputes and byte-identical
// certificates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "allocation_count.hpp"
#include "compiler/multi_criteria.hpp"
#include "core/result_store.hpp"
#include "core/scenario_engine.hpp"
#include "core/wire.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;
namespace fs = std::filesystem;

/// Fresh directory per test: no state bleeds between cases.
class ResultStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("teamplay_store_test_" + std::string(::testing::
                    UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    [[nodiscard]] fs::path segment_path(std::size_t sequence = 0) const {
        char name[32];
        std::snprintf(name, sizeof name, "segment-%06zu.tpseg", sequence);
        return dir_ / name;
    }

    [[nodiscard]] std::vector<std::uint8_t> read_segment(
        std::size_t sequence = 0) const {
        std::ifstream in(segment_path(sequence), std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    void write_segment(const std::vector<std::uint8_t>& bytes,
                       std::size_t sequence = 0) const {
        std::ofstream out(segment_path(sequence),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    fs::path dir_;
};

core::EvaluationKey make_key(const std::string& entry,
                             std::uint64_t fp = 42) {
    core::EvaluationKey key;
    key.structural_fp = fp;
    key.entry = entry;
    key.core_class = "big";
    key.opp_index = 1;
    key.kind = core::AnalysisKind::kTaint;
    key.params = 7;
    return key;
}

core::EvaluationResult make_result(double leakage) {
    core::EvaluationResult result;
    result.leakage = leakage;
    return result;
}

/// FNV-1a 64, mirrored from the codec so tests can re-seal patched frames
/// (same helper as test_wire).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
    std::uint64_t value = 14695981039346656037ULL;
    for (std::size_t i = 0; i < size; ++i) {
        value ^= data[i];
        value *= 1099511628211ULL;
    }
    return value;
}

/// Segment layout bookkeeping: byte offsets of the first record's result
/// frame, given the key stored first.
struct RecordLayout {
    std::size_t result_payload_begin = 0;
    std::size_t result_payload_size = 0;
};

RecordLayout first_record_layout(const core::EvaluationKey& key,
                                 const core::EvaluationResult& result) {
    constexpr std::size_t kSegmentHeader = 6;  // "TPSG" + u16 version
    const auto key_bytes = core::wire::encode(key).size();
    RecordLayout layout;
    layout.result_payload_begin = kSegmentHeader + 4 + key_bytes + 4;
    layout.result_payload_size = core::wire::encode(result).size();
    return layout;
}

// -- round-trip and warm start ------------------------------------------------

TEST_F(ResultStoreTest, RoundTripsBytesWithinOneInstance) {
    core::ResultStore store(dir_);
    const auto key = make_key("alpha");
    const auto result = make_result(0.5);
    EXPECT_TRUE(store.store(key, result));
    EXPECT_TRUE(store.contains(key));

    const auto loaded = store.load(key);
    ASSERT_EQ(loaded.status, core::ResultStore::LoadStatus::kHit);
    ASSERT_TRUE(loaded.result.has_value());
    EXPECT_EQ(core::wire::encode(*loaded.result),
              core::wire::encode(result));
}

TEST_F(ResultStoreTest, WarmStartsAcrossInstances) {
    const auto key = make_key("alpha");
    const auto result = make_result(0.25);
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(key, result));
    }
    core::ResultStore reopened(dir_);
    const auto stats = reopened.stats();
    EXPECT_EQ(stats.segments, 1U);
    EXPECT_EQ(stats.indexed, 1U);
    EXPECT_EQ(stats.scan_rejects, 0U);

    const auto loaded = reopened.load(key);
    ASSERT_EQ(loaded.status, core::ResultStore::LoadStatus::kHit);
    EXPECT_EQ(core::wire::encode(*loaded.result),
              core::wire::encode(result));
    EXPECT_EQ(reopened.stats().load_hits, 1U);
}

TEST_F(ResultStoreTest, DeduplicatesStoredKeys) {
    core::ResultStore store(dir_);
    const auto key = make_key("alpha");
    EXPECT_TRUE(store.store(key, make_result(0.5)));
    EXPECT_FALSE(store.store(key, make_result(0.5)));
    EXPECT_EQ(store.stats().appended, 1U);
}

TEST_F(ResultStoreTest, StoringAnIndexedKeyEncodesNothing) {
    // A real compiled front: its transformed program is most of the bytes a
    // spill would encode.
    const auto pill = usecases::make_camera_pill_app();
    const compiler::MultiCriteriaCompiler mcc(pill.program,
                                              pill.platform.cores[0]);
    core::EvaluationResult result;
    result.front = std::make_shared<const std::vector<compiler::TaskVersion>>(
        std::vector<compiler::TaskVersion>{mcc.compile("pill_compress", {})});
    const auto key = make_key("pill_compress");
    const auto allocations_of_store = [&](core::ResultStore& store) {
        const std::size_t before = g_allocations;
        const bool appended = store.store(key, result);
        const std::size_t allocations = g_allocations - before;
        EXPECT_FALSE(appended);
        return allocations;
    };
    {
        core::ResultStore store(dir_);
        ASSERT_TRUE(store.store(key, result));
        EXPECT_EQ(allocations_of_store(store), 0U);
        EXPECT_EQ(store.stats().appended, 1U);
    }
    // Reopened, the index comes from the scan.
    core::ResultStore reopened(dir_);
    ASSERT_TRUE(reopened.contains(key));
    EXPECT_EQ(allocations_of_store(reopened), 0U);
    EXPECT_EQ(reopened.stats().appended, 0U);
}

TEST_F(ResultStoreTest, MissingKeyIsAMiss) {
    core::ResultStore store(dir_);
    const auto loaded = store.load(make_key("absent"));
    EXPECT_EQ(loaded.status, core::ResultStore::LoadStatus::kMiss);
    EXPECT_FALSE(loaded.result.has_value());
    EXPECT_EQ(store.stats().load_misses, 1U);
}

TEST_F(ResultStoreTest, LaterDuplicateRecordWins) {
    // Append-only semantics: a second segment re-storing a key (after a
    // corruption-triggered recompute, say) shadows the first at scan.
    const auto key = make_key("alpha");
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(key, make_result(0.5)));
    }
    {
        core::ResultStore second(dir_);
        // The key is already indexed from segment 0: force a new record by
        // writing through a store opened on an empty view of the world.
        EXPECT_FALSE(second.store(key, make_result(0.75)));
    }
    // Hand-append a second segment holding the same key, different value.
    {
        std::vector<std::uint8_t> segment = read_segment(0);
        core::wire::Buffer stream(segment.begin(),
                                  segment.begin() + 6);  // header only
        core::wire::append_frame(stream, core::wire::encode(key));
        core::wire::append_frame(stream,
                                 core::wire::encode(make_result(0.75)));
        write_segment(stream, 1);
    }
    core::ResultStore reopened(dir_);
    const auto loaded = reopened.load(key);
    ASSERT_EQ(loaded.status, core::ResultStore::LoadStatus::kHit);
    EXPECT_EQ(loaded.result->leakage, 0.75);
}

// -- cache integration --------------------------------------------------------

TEST_F(ResultStoreTest, EvictionSpillsAndReloadInsteadOfRecompute) {
    auto store = std::make_shared<core::ResultStore>(dir_);
    core::EvaluationCache cache({.max_entries = 1}, store);
    int alpha_computes = 0;

    const auto alpha = make_key("alpha");
    const auto beta = make_key("beta");
    (void)cache.lookup(alpha, [&] {
        ++alpha_computes;
        return make_result(0.5);
    });
    // Admitting beta evicts alpha (budget 1) and spills it to the store.
    (void)cache.lookup(beta, [] { return make_result(0.75); });
    EXPECT_TRUE(store->contains(alpha));

    const auto before = cache.stats();
    EXPECT_GE(before.spills, 1U);

    // Alpha's next lookup is a cache miss served by the store: the compute
    // closure must not run again.
    const auto reloaded = cache.lookup(
        alpha, [&]() -> core::EvaluationResult {
            ++alpha_computes;
            ADD_FAILURE() << "stored key recomputed";
            return make_result(0.0);
        });
    EXPECT_EQ(alpha_computes, 1);
    EXPECT_EQ(reloaded->leakage, 0.5);
    const auto after = cache.stats();
    EXPECT_EQ(after.store_hits, before.store_hits + 1);
}

TEST_F(ResultStoreTest, ShutdownFlushWarmsTheNextCache) {
    const auto key = make_key("alpha");
    {
        auto store = std::make_shared<core::ResultStore>(dir_);
        core::EvaluationCache cache({}, store);
        (void)cache.lookup(key, [] { return make_result(0.5); });
        // No eviction (unbounded): persistence comes from the destructor's
        // flush_to_store().
    }
    auto store = std::make_shared<core::ResultStore>(dir_);
    EXPECT_TRUE(store->contains(key));
    core::EvaluationCache cache({}, store);
    const auto value = cache.lookup(key, []() -> core::EvaluationResult {
        ADD_FAILURE() << "flushed key recomputed";
        return make_result(0.0);
    });
    EXPECT_EQ(value->leakage, 0.5);
    EXPECT_EQ(cache.stats().store_hits, 1U);
    EXPECT_EQ(cache.stats().store_misses, 0U);
}

TEST_F(ResultStoreTest, CacheWithoutStoreKeepsStoreCountersZero) {
    core::EvaluationCache cache({.max_entries = 1});
    (void)cache.lookup(make_key("alpha"), [] { return make_result(0.5); });
    (void)cache.lookup(make_key("beta"), [] { return make_result(0.75); });
    cache.flush_to_store();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.store_hits, 0U);
    EXPECT_EQ(stats.store_misses, 0U);
    EXPECT_EQ(stats.spills, 0U);
    EXPECT_EQ(stats.store_rejects, 0U);
}

// -- corruption ---------------------------------------------------------------

TEST_F(ResultStoreTest, TruncatedFinalFrameIsSkippedNotFatal) {
    const auto alpha = make_key("alpha");
    const auto beta = make_key("beta");
    const auto alpha_result = make_result(0.5);
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(alpha, alpha_result));
        EXPECT_TRUE(store.store(beta, make_result(0.75)));
    }
    // Tear the tail off the last record, as a crash mid-append would.
    auto bytes = read_segment();
    bytes.resize(bytes.size() - 5);
    write_segment(bytes);

    core::ResultStore reopened(dir_);
    EXPECT_GE(reopened.stats().scan_rejects, 1U);
    // The intact first record still serves, byte-identical.
    const auto loaded = reopened.load(alpha);
    ASSERT_EQ(loaded.status, core::ResultStore::LoadStatus::kHit);
    EXPECT_EQ(core::wire::encode(*loaded.result),
              core::wire::encode(alpha_result));
    // The torn record is simply absent.
    EXPECT_EQ(reopened.load(beta).status,
              core::ResultStore::LoadStatus::kMiss);
}

TEST_F(ResultStoreTest, ByteFlippedResultIsRejectedAndRecomputedIdentically) {
    const auto key = make_key("alpha");
    const auto result = make_result(0.5);
    const auto pristine = core::wire::encode(result);
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(key, result));
    }
    // Flip one byte in the middle of the result payload: the frame's
    // checksum no longer matches, so the lazy verify at load must reject.
    auto bytes = read_segment();
    const auto layout = first_record_layout(key, result);
    bytes[layout.result_payload_begin + layout.result_payload_size / 2] ^=
        0x40;
    write_segment(bytes);

    {
        core::ResultStore store(dir_);
        // Scan indexes the frame without decoding it — corruption is found
        // at load, where the store drops the entry and reports kReject.
        EXPECT_TRUE(store.contains(key));
        const auto loaded = store.load(key);
        EXPECT_EQ(loaded.status, core::ResultStore::LoadStatus::kReject);
        EXPECT_FALSE(loaded.result.has_value());
        EXPECT_EQ(store.stats().load_rejects, 1U);
        EXPECT_FALSE(store.contains(key));
    }

    // Same corruption through an attached cache (fresh instance, so the
    // scan re-indexes the corrupt frame): the miss consults the store,
    // observes the reject, recomputes — byte-identical — and the
    // recomputed entry re-enters the store now the frame is unindexed.
    auto store = std::make_shared<core::ResultStore>(dir_);
    core::EvaluationCache cache({}, store);
    const auto recomputed =
        cache.lookup(key, [&] { return make_result(0.5); });
    EXPECT_EQ(core::wire::encode(*recomputed), pristine);
    EXPECT_EQ(cache.stats().store_rejects, 1U);
    EXPECT_EQ(cache.stats().store_hits, 0U);
    cache.flush_to_store();
    EXPECT_TRUE(store->contains(key));
    EXPECT_EQ(store->load(key).status,
              core::ResultStore::LoadStatus::kHit);
}

TEST_F(ResultStoreTest, StaleFrameVersionIsRejectedAtLoad) {
    const auto key = make_key("alpha");
    const auto result = make_result(0.5);
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(key, result));
    }
    // Patch the result frame's embedded wire version and re-seal its
    // checksum, so the corruption presents purely as version skew.
    auto bytes = read_segment();
    const auto layout = first_record_layout(key, result);
    const std::size_t version_at = layout.result_payload_begin + 4;
    bytes[version_at] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    bytes[version_at + 1] = 0;
    const std::uint64_t checksum =
        fnv1a(bytes.data() + layout.result_payload_begin,
              layout.result_payload_size - 8);
    for (int i = 0; i < 8; ++i)
        bytes[layout.result_payload_begin + layout.result_payload_size - 8 +
              static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
    write_segment(bytes);

    core::ResultStore store(dir_);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.load(key).status,
              core::ResultStore::LoadStatus::kReject);
    EXPECT_EQ(store.stats().load_rejects, 1U);
}

TEST_F(ResultStoreTest, StaleSegmentVersionIsSkippedWholesale) {
    const auto key = make_key("alpha");
    {
        core::ResultStore store(dir_);
        EXPECT_TRUE(store.store(key, make_result(0.5)));
    }
    auto bytes = read_segment();
    bytes[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    bytes[5] = 0;
    write_segment(bytes);

    core::ResultStore reopened(dir_);
    EXPECT_EQ(reopened.stats().indexed, 0U);
    EXPECT_GE(reopened.stats().scan_rejects, 1U);
    EXPECT_EQ(reopened.load(key).status,
              core::ResultStore::LoadStatus::kMiss);
}

TEST_F(ResultStoreTest, EmptyAndForeignFilesAreSkipped) {
    { std::ofstream out(dir_ / "empty.tpseg", std::ios::binary); }
    {
        std::ofstream out(dir_ / "foreign.tpseg", std::ios::binary);
        out << "this is not a segment file at all, but it is long enough";
    }
    core::ResultStore store(dir_);
    const auto stats = store.stats();
    EXPECT_EQ(stats.indexed, 0U);
    EXPECT_EQ(stats.scan_rejects, 2U);
    // The poisoned directory still accepts new work.
    const auto key = make_key("alpha");
    EXPECT_TRUE(store.store(key, make_result(0.5)));
    EXPECT_EQ(store.load(key).status,
              core::ResultStore::LoadStatus::kHit);
}

// -- engine integration -------------------------------------------------------

core::WorkflowOptions fast_options() {
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal_iterations = 60;
    return options;
}

struct Fleet {
    std::vector<usecases::UseCaseApp> apps;
    std::vector<core::ScenarioRequest> requests;
};

/// The warm-start acceptance trio: UAV, camera pill, rover (the rover
/// shares perception kernels with the UAV).
Fleet make_fleet() {
    Fleet fleet;
    fleet.apps.push_back(usecases::make_uav_app("apalis-tk1"));
    fleet.apps.push_back(usecases::make_camera_pill_app());
    fleet.apps.push_back(usecases::make_rover_app("apalis-tk1"));
    for (const auto& app : fleet.apps) {
        core::ScenarioRequest request;
        request.program = &app.program;
        request.platform = &app.platform;
        request.csl_source = app.csl_source;
        request.options = fast_options();
        request.label = app.name;
        fleet.requests.push_back(std::move(request));
    }
    return fleet;
}

std::vector<std::string> certificate_texts(
    const std::vector<core::ToolchainReport>& reports) {
    std::vector<std::string> texts;
    texts.reserve(reports.size());
    for (const auto& report : reports)
        texts.push_back(report.certificate.to_text());
    return texts;
}

TEST_F(ResultStoreTest, WarmEngineServesIdenticalCertificatesWithoutRecompute) {
    const auto fleet = make_fleet();
    std::vector<std::string> cold_certs;
    {
        core::ScenarioEngine engine(
            {.worker_threads = 2,
             .result_store = std::make_shared<core::ResultStore>(dir_)});
        cold_certs = certificate_texts(engine.run_all(fleet.requests));
        // Engine destruction flushes the cache to the store.
    }
    core::ScenarioEngine warm(
        {.worker_threads = 2,
         .result_store = std::make_shared<core::ResultStore>(dir_)});
    const auto warm_certs = certificate_texts(warm.run_all(fleet.requests));

    EXPECT_EQ(warm_certs, cold_certs);  // byte-identical, uav/pill/rover
    const auto stats = warm.cache_stats();
    EXPECT_GT(stats.store_hits, 0U);
    EXPECT_EQ(stats.store_misses, 0U);  // zero analysis recomputes
}

TEST_F(ResultStoreTest, WarmStartIsBudgetInvariant) {
    const auto fleet = make_fleet();
    std::vector<std::string> reference;
    {
        core::ScenarioEngine engine;  // no store: the identity baseline
        reference = certificate_texts(engine.run_all(fleet.requests));
    }
    {
        core::ScenarioEngine cold(
            {.worker_threads = 4,
             .result_store = std::make_shared<core::ResultStore>(dir_)});
        EXPECT_EQ(certificate_texts(cold.run_all(fleet.requests)),
                  reference);
    }
    // Warm restart under a hostile budget: every miss spills immediately,
    // loads and recomputes interleave, bytes must not move.
    core::ScenarioEngine warm(
        {.worker_threads = 4,
         .cache_budget = {.max_entries = 1},
         .result_store = std::make_shared<core::ResultStore>(dir_)});
    EXPECT_EQ(certificate_texts(warm.run_all(fleet.requests)), reference);
    EXPECT_EQ(warm.cache_stats().store_misses, 0U);
}

TEST_F(ResultStoreTest, ConcurrentShardsShareOneStore) {
    // TSan coverage: two engines on two threads, each with workers and a
    // tiny budget, spill into and load from one store instance at once
    // (eviction spills of one cache race with loads of the other).
    const auto fleet = make_fleet();
    auto store = std::make_shared<core::ResultStore>(dir_);
    const auto run_fleet = [&](std::vector<std::string>& certs) {
        core::ScenarioEngine engine({.worker_threads = 2,
                                     .cache_budget = {.max_entries = 2},
                                     .result_store = store});
        certs = certificate_texts(engine.run_all(fleet.requests));
    };
    std::vector<std::string> first;
    std::vector<std::string> second;
    // A std::async future joins in its destructor, also when this thread's
    // run throws, and get() rethrows the other thread's failure.
    auto other = std::async(std::launch::async, [&] { run_fleet(second); });
    run_fleet(first);
    other.get();
    EXPECT_EQ(first, second);
    EXPECT_GT(store->stats().appended, 0U);
}

// -- resealed mutation sweep --------------------------------------------------
//
// Plain byte flips only ever reach a frame's checksum.  Flipping a bit and
// resealing the frame's FNV trailer hands the strict decoder a mutant it
// must judge on its own, through `load`: nothing may throw, a kHit must
// re-encode to the mutated frame bytes, and anything else must be counted
// as a kReject.  Frames are judged independently, so each round flips one
// byte in every result frame of the segment and reopens the store once.

/// Rounds per mask.  Frame f is flipped at offsets 0, s, 2s, ... with an
/// odd stride s >= size(f) / kSweepRounds, so every byte of the profile
/// and taint frames and every odd-strided byte of the compiled fronts is
/// hit; about 0.5 s in a Release build.
constexpr std::size_t kSweepRounds = 144;

TEST_F(ResultStoreTest, ResealedSegmentMutantsLoadByteExactOrReject) {
    {
        // One profiled and one static scenario: profile, taint and
        // compiled-front result frames in one segment.
        const auto uav = usecases::make_uav_app("apalis-tk1");
        const auto pill = usecases::make_camera_pill_app();
        std::vector<core::ScenarioRequest> requests;
        for (const auto* app : {&uav, &pill}) {
            core::ScenarioRequest request;
            request.program = &app->program;
            request.platform = &app->platform;
            request.csl_source = app->csl_source;
            request.options = fast_options();
            request.label = app->name;
            requests.push_back(std::move(request));
        }
        core::ScenarioEngine engine(
            {.result_store = std::make_shared<core::ResultStore>(dir_)});
        (void)engine.run_all(requests);
    }
    const auto pristine = read_segment();

    struct Record {
        core::EvaluationKey key;
        std::size_t begin = 0;   ///< result payload offset in the segment
        std::size_t sealed = 0;  ///< payload bytes before the checksum
        std::size_t stride = 1;
    };
    std::vector<Record> records;
    std::vector<bool> kinds_seen(3, false);
    std::size_t offset = 6;  // "TPSG" + u16 version
    while (const auto key_frame = core::wire::next_frame(pristine, offset)) {
        Record record{core::wire::decode_key(*key_frame)};
        record.begin = offset + 4;
        const auto result_frame = core::wire::next_frame(pristine, offset);
        ASSERT_TRUE(result_frame.has_value());
        record.sealed = result_frame->size() - 8;
        record.stride = (record.sealed / kSweepRounds) | 1U;
        kinds_seen[static_cast<std::size_t>(record.key.kind)] = true;
        records.push_back(std::move(record));
    }
    ASSERT_EQ(kinds_seen, std::vector<bool>(3, true));

    std::size_t hits = 0;
    std::size_t rejects = 0;
    for (const std::uint8_t mask : {0x01, 0x80}) {
        for (std::size_t round = 0; round < kSweepRounds; ++round) {
            auto mutant = pristine;
            for (const Record& record : records) {
                const std::size_t at = round * record.stride;
                if (at >= record.sealed) continue;
                mutant[record.begin + at] ^= mask;
                const std::uint64_t checksum =
                    fnv1a(mutant.data() + record.begin, record.sealed);
                for (std::size_t b = 0; b < 8; ++b)
                    mutant[record.begin + record.sealed + b] =
                        static_cast<std::uint8_t>(checksum >> (8 * b));
            }
            write_segment(mutant);
            const std::string where = "mask " + std::to_string(mask) +
                                      " round " + std::to_string(round);
            try {
                core::ResultStore store(dir_);
                for (const Record& record : records) {
                    const auto loaded = store.load(record.key);
                    if (loaded.status == core::ResultStore::LoadStatus::kHit) {
                        ++hits;
                        const auto frame =
                            std::span<const std::uint8_t>(mutant).subspan(
                                record.begin, record.sealed + 8);
                        EXPECT_TRUE(std::ranges::equal(
                            core::wire::encode(*loaded.result), frame))
                            << where << ", byte "
                            << round * record.stride << " of a "
                            << core::analysis_kind_name(record.key.kind)
                            << " frame: hit does not re-encode to it";
                    } else {
                        ++rejects;
                        EXPECT_EQ(loaded.status,
                                  core::ResultStore::LoadStatus::kReject)
                            << where;
                    }
                }
                const auto stats = store.stats();
                EXPECT_EQ(stats.load_hits + stats.load_rejects, records.size())
                    << where;
            } catch (const std::exception& error) {
                ADD_FAILURE() << where << ": threw " << error.what();
            }
        }
    }
    EXPECT_GT(hits, 0U);     // the sweep reaches past the decoder's checks
    EXPECT_GT(rejects, 0U);  // and the decoder refuses some mutants
}

}  // namespace
