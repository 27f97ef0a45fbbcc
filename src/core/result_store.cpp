#include "core/result_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/wire.hpp"

namespace teamplay::core {

namespace {

/// Segment header: magic + the wire version its frames were written with.
constexpr std::uint8_t kSegmentMagic[4] = {'T', 'P', 'S', 'G'};
constexpr std::size_t kSegmentHeaderBytes = 4 + 2;

void put_segment_header(std::uint8_t (&header)[kSegmentHeaderBytes]) {
    std::memcpy(header, kSegmentMagic, 4);
    header[4] = static_cast<std::uint8_t>(wire::kVersion);
    header[5] = static_cast<std::uint8_t>(wire::kVersion >> 8);
}

bool check_segment_header(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < kSegmentHeaderBytes) return false;
    if (std::memcmp(bytes.data(), kSegmentMagic, 4) != 0) return false;
    const auto version = static_cast<std::uint16_t>(
        bytes[4] | static_cast<std::uint16_t>(bytes[5]) << 8);
    return version == wire::kVersion;
}

}  // namespace

// -- Segment ------------------------------------------------------------------

struct ResultStore::Segment {
    std::filesystem::path path;
    const std::uint8_t* base = nullptr;
    std::size_t size = 0;

    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    /// Map (or read) the file; a segment that cannot be opened at all gets
    /// base == nullptr / size == 0 and is rejected by the header check.
    explicit Segment(std::filesystem::path file) : path(std::move(file)) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) return;
        struct stat status {};
        if (::fstat(fd, &status) == 0 && status.st_size > 0) {
            const auto length = static_cast<std::size_t>(status.st_size);
            void* mapped =
                ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
            if (mapped != MAP_FAILED) {
                base = static_cast<const std::uint8_t*>(mapped);
                size = length;
                mapped_ = true;
            }
        }
        ::close(fd);
        if (mapped_) return;
        // A failed mmap (and the zero-length-file case, which mmap
        // rejects): pull the bytes onto the heap.
        std::FILE* file_handle = std::fopen(path.c_str(), "rb");
        if (file_handle == nullptr) return;
        std::fseek(file_handle, 0, SEEK_END);
        const long end = std::ftell(file_handle);
        if (end > 0) {
            heap_.resize(static_cast<std::size_t>(end));
            std::fseek(file_handle, 0, SEEK_SET);
            if (std::fread(heap_.data(), 1, heap_.size(), file_handle) ==
                heap_.size()) {
                base = heap_.data();
                size = heap_.size();
            } else {
                heap_.clear();
            }
        }
        std::fclose(file_handle);
    }

    ~Segment() {
        if (mapped_) ::munmap(const_cast<std::uint8_t*>(base), size);
    }

    [[nodiscard]] std::span<const std::uint8_t> bytes() const {
        return {base, size};
    }

private:
    bool mapped_ = false;
    std::vector<std::uint8_t> heap_;
};

// -- open / scan --------------------------------------------------------------

ResultStore::ResultStore(std::filesystem::path directory)
    : directory_(std::move(directory)) {
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    scan_directory_locked();
}

ResultStore::~ResultStore() {
    if (write_file_ != nullptr) std::fclose(write_file_);
}

void ResultStore::scan_directory_locked() {
    // Deterministic order: later files override earlier ones on duplicate
    // keys, so sort by name (creation order for our zero-padded sequence
    // names) rather than directory enumeration order.
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(directory_, ec))
        if (entry.is_regular_file(ec)) files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    for (const auto& file : files) {
        segments_.push_back(std::make_unique<Segment>(file));
        if (!check_segment_header(segments_.back()->bytes())) {
            // Empty, foreign or stale-version file: not ours to read.  One
            // reject per file, and nothing from it enters the index.
            ++stats_.scan_rejects;
            segments_.pop_back();
            continue;
        }
        scan_segment_locked(segments_.size() - 1);
    }
}

void ResultStore::scan_segment_locked(std::size_t segment_index) {
    const auto bytes = segments_[segment_index]->bytes();
    std::size_t offset = kSegmentHeaderBytes;
    while (true) {
        std::optional<std::span<const std::uint8_t>> key_frame;
        std::optional<std::span<const std::uint8_t>> result_frame;
        try {
            key_frame = wire::next_frame(bytes, offset);
            if (!key_frame.has_value()) return;  // clean end of segment
            result_frame = wire::next_frame(bytes, offset);
        } catch (const wire::WireError&) {
            // Torn framing (an interrupted append): nothing after this
            // point is trustworthy.  Count once and stop this segment.
            ++stats_.scan_rejects;
            return;
        }
        if (!result_frame.has_value()) {
            ++stats_.scan_rejects;  // key without its result: torn final record
            return;
        }
        // Index by strictly-decoded key; the result frame is *not* decoded
        // here (verify-on-load).  A corrupt key frame skips one record —
        // the framing already proved where the next record starts.
        try {
            const EvaluationKey key = wire::decode_key(*key_frame);
            index_[key] = Location{
                segment_index,
                static_cast<std::size_t>(result_frame->data() - bytes.data()),
                result_frame->size()};
        } catch (const wire::WireError&) {
            ++stats_.scan_rejects;
        }
    }
}

// -- load ---------------------------------------------------------------------

ResultStore::Loaded ResultStore::load(const EvaluationKey& key) {
    Location location;
    int active_fd = -1;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++stats_.load_misses;
            return {};
        }
        location = it->second;
        active_fd = write_fd_;
    }

    // Read outside the lock: mapped segments are immutable, and the active
    // segment is append-only — bytes below an indexed offset never change.
    std::vector<std::uint8_t> scratch;
    std::span<const std::uint8_t> frame;
    bool readable = false;
    if (location.segment == kActiveSegment) {
        scratch.resize(location.length);
        const auto got =
            ::pread(active_fd, scratch.data(), location.length,
                    static_cast<off_t>(location.offset));
        if (got == static_cast<ssize_t>(location.length)) {
            frame = scratch;
            readable = true;
        }
    } else {
        frame = segments_[location.segment]->bytes().subspan(
            location.offset, location.length);
        readable = true;
    }

    if (readable) {
        try {
            EvaluationResult result = wire::decode_result(frame);
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.load_hits;
            return {LoadStatus::kHit, std::move(result)};
        } catch (const wire::WireError&) {
            // Fall through to the reject path.
        }
    }

    // Corrupt or unreadable frame: drop it from the index so the
    // recomputed result can be re-appended, and count the reject.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.load_rejects;
    const auto it = index_.find(key);
    if (it != index_.end() && it->second.segment == location.segment &&
        it->second.offset == location.offset)
        index_.erase(it);
    return {LoadStatus::kReject, std::nullopt};
}

bool ResultStore::contains(const EvaluationKey& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.contains(key);
}

// -- append -------------------------------------------------------------------

bool ResultStore::open_write_segment_locked() {
    // Exclusive creation with sequence-number retry: two stores (or two
    // processes) sharing a directory each get their own segment file.
    for (std::size_t attempt = 0; attempt < 1000; ++attempt) {
        char name[32];
        std::snprintf(name, sizeof name, "segment-%06zu.tpseg",
                      segments_.size() + attempt);
        const auto path = directory_ / name;
        // Read+write: loads of entries this instance appended pread the
        // same descriptor ("wbx" would leave the fd write-only).
        std::FILE* file = std::fopen(path.c_str(), "wb+x");
        if (file == nullptr) {
            if (errno == EEXIST) continue;
            break;
        }
        std::uint8_t header[kSegmentHeaderBytes];
        put_segment_header(header);
        if (std::fwrite(header, 1, sizeof header, file) != sizeof header ||
            std::fflush(file) != 0) {
            std::fclose(file);
            break;
        }
        write_file_ = file;
        write_fd_ = ::fileno(file);
        write_offset_ = sizeof header;
        return true;
    }
    std::fprintf(stderr,
                 "warning: result store %s is not writable; spills "
                 "disabled\n",
                 directory_.string().c_str());
    write_failed_ = true;
    return false;
}

bool ResultStore::store(const EvaluationKey& key,
                        const EvaluationResult& result) {
    // A key the store already holds (a sibling cache or process appended
    // it first) is answered from the index before encoding anything.
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (index_.contains(key) || write_failed_) return false;
    }
    // Encode outside the lock — a compiled front with its programs can be
    // hundreds of kilobytes.
    const wire::Buffer key_message = wire::encode(key);
    const wire::Buffer result_message = wire::encode(result);
    wire::Buffer record;
    record.reserve(8 + key_message.size() + result_message.size());
    wire::append_frame(record, key_message);
    wire::append_frame(record, result_message);

    // Re-check: a concurrent append of the same key may have landed while
    // this one encoded.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (index_.contains(key)) return false;  // deterministic duplicate
    if (write_failed_) return false;
    if (write_file_ == nullptr && !open_write_segment_locked()) return false;

    if (std::fwrite(record.data(), 1, record.size(), write_file_) !=
            record.size() ||
        std::fflush(write_file_) != 0) {
        // A partial record at the segment tail is exactly the torn-frame
        // case the scanner tolerates; stop appending, keep serving reads.
        std::fprintf(stderr,
                     "warning: result store append failed; spills "
                     "disabled\n");
        write_failed_ = true;
        return false;
    }
    index_[key] =
        Location{kActiveSegment,
                 write_offset_ + 4 + key_message.size() + 4,
                 result_message.size()};
    write_offset_ += record.size();
    ++stats_.appended;
    return true;
}

ResultStore::Stats ResultStore::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Stats stats = stats_;
    stats.segments = segments_.size() + (write_file_ != nullptr ? 1 : 0);
    stats.indexed = index_.size();
    return stats;
}

}  // namespace teamplay::core
