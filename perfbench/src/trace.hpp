// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions — never inside the library.  Each span
// carries a name, start and end (seconds on the steady clock since the
// tracer was created), its parent span and a request id.  A span's self
// time is its duration minus the part of that interval its direct child
// spans cover.  Spans stay in memory and are written out once, at exit.
//
// Two kinds of root span exist: "request" roots re-issue the work the
// untraced run did (their summed duration is the traced busy time), and
// "probe" roots re-run a library call only to attribute time or count
// calls inside it (replays, per-version analysers).  Probes are excluded
// from busy time so coverage compares like with like.
//
// Single-threaded by design: the traced run re-issues work sequentially.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::uint64_t request = 0;
    int parent = -1;  ///< index into the span list, -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;

    [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

/// Per-name totals over a span list.
struct SpanTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< summed self times

    [[nodiscard]] double mean_self_s() const {
        return count > 0 ? self_s / static_cast<double>(count) : 0.0;
    }
};

/// Self time of every span: duration minus the union of its direct
/// children's intervals (children are clipped to the parent's interval,
/// and overlapping children are counted once).
[[nodiscard]] inline std::vector<double> self_times(
    const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const auto& span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start_s, span.end_s);
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double cursor = spans[i].start_s;
        for (auto [start, end] : kids) {
            start = std::max(start, cursor);
            end = std::min(end, spans[i].end_s);
            if (end > start) {
                covered += end - start;
                cursor = end;
            }
        }
        self[i] = spans[i].duration_s() - covered;
    }
    return self;
}

[[nodiscard]] inline std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
    const auto self = self_times(spans);
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& entry = totals[spans[i].name];
        ++entry.count;
        entry.total_s += spans[i].duration_s();
        entry.self_s += self[i];
    }
    return totals;
}

class Tracer {
public:
    using Clock = std::chrono::steady_clock;

    /// RAII span: closes on destruction.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name, std::uint64_t request)
            : tracer_(&tracer),
              index_(tracer.open(std::move(name), request)) {}
        ~Scope() { tracer_->close(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        int index_;
    };

    int open(std::string name, std::uint64_t request) {
        Span span;
        span.name = std::move(name);
        span.request = request;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.start_s = now();
        spans_.push_back(std::move(span));
        const int index = static_cast<int>(spans_.size() - 1);
        stack_.push_back(index);
        return index;
    }

    void close(int index) {
        spans_[static_cast<std::size_t>(index)].end_s = now();
        if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Summed duration of the root spans named `root_name`.
    [[nodiscard]] double root_time_s(const std::string& root_name) const {
        double total = 0.0;
        for (const auto& span : spans_)
            if (span.parent < 0 && span.name == root_name)
                total += span.duration_s();
        return total;
    }

    /// One JSON object per span, one per line.
    void write_jsonl(const std::string& path) const {
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& span = spans_[i];
            out << "{\"id\":" << i << ",\"parent\":" << span.parent
                << ",\"request\":" << span.request << ",\"name\":\""
                << span.name << "\",\"start_s\":" << span.start_s
                << ",\"end_s\":" << span.end_s << "}\n";
        }
    }

private:
    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

}  // namespace perfbench
