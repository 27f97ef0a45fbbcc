// Persistent, content-addressed store of memoised evaluation results.
//
// The EvaluationCache dies with the process: a restarting service re-pays
// every Pareto-front compilation, PowProfiler campaign and taint analysis
// it had already done.  This store gives completed entries a durable home
// — an append-only, segment-based directory of `wire`-encoded
// (EvaluationKey, EvaluationResult) frames, keyed by the same
// content-addressed EvaluationKey the cache uses (ir::structural_fingerprint
// plus options fingerprint), so an entry written by one engine or one
// *process* warm-starts any other that derives the same key.
//
// Segment layout (one file per writing store instance, never rewritten):
//
//   4 bytes  magic "TPSG"
//   u16      wire::kVersion (little-endian) — whole segment is skipped on
//            mismatch; frames additionally carry their own version
//   records, each:
//     frame  u32 LE length + wire-encoded EvaluationKey
//     frame  u32 LE length + wire-encoded EvaluationResult
//
// Startup mmaps every regular file in the directory (a heap read when
// mmap fails) and indexes result-frame offsets by decoded key *without*
// decoding any result — warm start touches a few hundred bytes per entry,
// not the megabytes of compiled programs behind them.
// Result frames are verified lazily: a `load` hit strictly decodes the
// frame through the wire codec (checksum, bounds, enum validation), and a
// torn, byte-flipped or version-skewed frame is dropped from the index and
// counted, never fatal — the store is a cache, so the only correct failure
// mode is recompute.  Duplicate keys (later segments, later records) win,
// matching append-only semantics.
//
// Concurrency: all index and append operations are mutex-protected; loads
// read immutable mapped bytes (or pread the active segment below its
// flushed offset) outside the lock, so several engines can append and load
// against one shared store concurrently (exercised under TSan).  Writing
// is single-process per segment: each writing instance creates its own
// exclusively-opened segment file, so two processes sharing a directory
// never interleave bytes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/evaluation_cache.hpp"

namespace teamplay::core {

class ResultStore {
public:
    /// What a `load` observed (kept distinct so the cache can attribute
    /// recomputes to absence versus corruption).
    enum class LoadStatus : std::uint8_t {
        kHit,     ///< frame present, checksum-verified, strictly decoded
        kMiss,    ///< key not in the index
        kReject,  ///< frame present but corrupt — dropped from the index
    };

    struct Loaded {
        LoadStatus status = LoadStatus::kMiss;
        std::optional<EvaluationResult> result;  ///< set iff status == kHit
    };

    /// One consistent snapshot (every field read under the same lock).
    struct Stats {
        std::size_t segments = 0;      ///< files this store reads or writes
        std::size_t indexed = 0;       ///< live index entries
        std::uint64_t appended = 0;    ///< records written by this instance
        std::uint64_t scan_rejects = 0;  ///< files/records skipped at open
        std::uint64_t load_hits = 0;
        std::uint64_t load_misses = 0;
        std::uint64_t load_rejects = 0;  ///< corrupt frames found at load
    };

    /// Open (creating if needed) the store directory and index every
    /// segment found there.  Corrupt, truncated, foreign or stale-version
    /// files never throw — their frames are skipped and counted in
    /// `Stats::scan_rejects`.
    explicit ResultStore(std::filesystem::path directory);
    ~ResultStore();

    ResultStore(const ResultStore&) = delete;
    ResultStore& operator=(const ResultStore&) = delete;

    /// Decode and verify the stored result for `key`.  A corrupt frame
    /// (kReject) is removed from the index so a subsequent `store` of the
    /// recomputed result can replace it.
    [[nodiscard]] Loaded load(const EvaluationKey& key);

    /// Append one record; returns false (and encodes and writes nothing)
    /// when the key is already indexed — results are content-addressed and
    /// deterministic, so the resident frame is byte-equivalent — or when
    /// the segment file cannot be written (the store degrades to
    /// read-only, never throws).
    bool store(const EvaluationKey& key, const EvaluationResult& result);

    [[nodiscard]] bool contains(const EvaluationKey& key) const;
    [[nodiscard]] Stats stats() const;
    [[nodiscard]] const std::filesystem::path& directory() const {
        return directory_;
    }

private:
    /// One read-only segment, mmap'd when possible (heap-backed fallback);
    /// bytes are immutable for the store's lifetime either way.
    struct Segment;

    /// Where an indexed result frame lives.  `segment == kActiveSegment`
    /// means the segment this instance is appending to (read via pread
    /// below the flushed offset).
    struct Location {
        std::size_t segment = 0;
        std::size_t offset = 0;  ///< of the result-frame payload
        std::size_t length = 0;
    };
    static constexpr std::size_t kActiveSegment = SIZE_MAX;

    void scan_directory_locked();
    void scan_segment_locked(std::size_t segment_index);
    bool open_write_segment_locked();

    std::filesystem::path directory_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Segment>> segments_;
    std::map<EvaluationKey, Location> index_;

    std::FILE* write_file_ = nullptr;
    int write_fd_ = -1;
    std::size_t write_offset_ = 0;  ///< flushed bytes in the active segment
    bool write_failed_ = false;

    /// The counters; `segments` and `indexed` are read off the members
    /// above when a snapshot is taken.
    Stats stats_;
};

}  // namespace teamplay::core
