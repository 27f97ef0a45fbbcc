#include "core/admission.hpp"

#include <algorithm>
#include <sstream>

namespace teamplay::core {

namespace {

constexpr double kEwmaAlpha = 0.2;

[[nodiscard]] std::string_view reason_word(ShedError::Reason reason) {
    switch (reason) {
        case ShedError::Reason::kQueueFull: return "queue full";
        case ShedError::Reason::kDeadlineUnmeetable:
            return "deadline unmeetable";
        case ShedError::Reason::kBudgetExhausted: return "budget exhausted";
        case ShedError::Reason::kRemote: return "remote";
    }
    return "?";
}

}  // namespace

std::optional<Priority> parse_priority(std::string_view name) {
    if (name == "interactive") return Priority::kInteractive;
    if (name == "batch") return Priority::kBatch;
    if (name == "background") return Priority::kBackground;
    return std::nullopt;
}

std::string ShedError::compose(Reason reason, const std::string& label,
                               const std::string& detail) {
    std::string message = "scenario shed";
    if (!label.empty()) message += ": " + label;
    message += " (";
    message += reason_word(reason);
    if (!detail.empty()) message += "; " + detail;
    message += ")";
    return message;
}

// -- AdmissionStats -----------------------------------------------------------

void AdmissionStats::PerClass::merge(const PerClass& other) {
    submitted += other.submitted;
    admitted += other.admitted;
    rejected += other.rejected;
    shed += other.shed;
    completed += other.completed;
    cancelled += other.cancelled;
    failed += other.failed;
    // High-water marks don't sum across shards: the service-wide figure is
    // the worst depth any one queue reached.
    queue_peak = std::max(queue_peak, other.queue_peak);
}

AdmissionStats::PerClass AdmissionStats::PerClass::since(
    const PerClass& before) const {
    PerClass delta;
    delta.submitted = submitted - before.submitted;
    delta.admitted = admitted - before.admitted;
    delta.rejected = rejected - before.rejected;
    delta.shed = shed - before.shed;
    delta.completed = completed - before.completed;
    delta.cancelled = cancelled - before.cancelled;
    delta.failed = failed - before.failed;
    delta.queue_peak = queue_peak;  // gauge: report the current high water
    return delta;
}

void AdmissionStats::merge(const AdmissionStats& other) {
    for (std::size_t i = 0; i < classes.size(); ++i)
        classes[i].merge(other.classes[i]);
    if (remote_failures.size() < other.remote_failures.size())
        remote_failures.resize(other.remote_failures.size(), 0);
    for (std::size_t i = 0; i < other.remote_failures.size(); ++i)
        remote_failures[i] += other.remote_failures[i];
}

AdmissionStats AdmissionStats::since(const AdmissionStats& before) const {
    AdmissionStats delta;
    for (std::size_t i = 0; i < classes.size(); ++i)
        delta.classes[i] = classes[i].since(before.classes[i]);
    delta.remote_failures = remote_failures;  // gauges
    return delta;
}

AdmissionStats::PerClass AdmissionStats::totals() const {
    PerClass sum;
    for (const auto& per_class : classes) sum.merge(per_class);
    return sum;
}

std::string AdmissionStats::to_string() const {
    const PerClass sum = totals();
    std::ostringstream os;
    os << "submitted " << sum.submitted << ", admitted " << sum.admitted
       << ", rejected " << sum.rejected << ", shed " << sum.shed
       << ", completed " << sum.completed << ", cancelled " << sum.cancelled
       << ", failed " << sum.failed << " (queue peak " << sum.queue_peak
       << ")";
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const auto& c = classes[i];
        if (c.submitted == 0) continue;
        os << "; " << priority_name(static_cast<Priority>(i)) << ": "
           << c.submitted << " in, " << c.rejected << " rejected, " << c.shed
           << " shed";
    }
    return os.str();
}

// -- AdmissionController ------------------------------------------------------

std::exception_ptr AdmissionController::try_admit(
    Priority priority,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const std::string& label) {
    const auto index = static_cast<std::size_t>(priority);
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& per_class = stats_.classes[index];
    ++per_class.submitted;

    const std::size_t depth = options_.queue_depths[index];
    if (depth != 0 && queued_[index] >= depth) {
        ++per_class.rejected;
        std::ostringstream detail;
        detail << queued_[index] << "/" << depth << " "
               << priority_name(priority) << " requests queued";
        return std::make_exception_ptr(
            ShedError(ShedError::Reason::kQueueFull, label, detail.str()));
    }

    if (deadline.has_value()) {
        double estimate_s = 0.0;
        for (const auto& [name, mean] : stage_means_)
            estimate_s += mean.mean_s;
        const auto finish_estimate =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(estimate_s));
        if (finish_estimate > *deadline) {
            ++per_class.rejected;
            std::ostringstream detail;
            detail << "pipeline estimate " << estimate_s << " s overruns the "
                   << "deadline";
            return std::make_exception_ptr(ShedError(
                ShedError::Reason::kDeadlineUnmeetable, label, detail.str()));
        }
    }

    ++per_class.admitted;
    ++queued_[index];
    per_class.queue_peak = std::max<std::uint64_t>(per_class.queue_peak,
                                                   queued_[index]);
    return nullptr;
}

void AdmissionController::on_start(Priority priority) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& queued = queued_[static_cast<std::size_t>(priority)];
    if (queued > 0) --queued;
}

void AdmissionController::on_completed(Priority priority,
                                       std::span<const StageLap> laps) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.classes[static_cast<std::size_t>(priority)].completed;
    for (const auto& lap : laps) {
        auto it = stage_means_.find(lap.stage);
        if (it == stage_means_.end())
            it = stage_means_.emplace(lap.stage, StageMean{}).first;
        auto& mean = it->second;
        if (!mean.seeded) {
            mean.mean_s = lap.seconds;
            mean.seeded = true;
        } else {
            mean.mean_s += kEwmaAlpha * (lap.seconds - mean.mean_s);
        }
    }
}

void AdmissionController::on_shed(Priority priority) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.classes[static_cast<std::size_t>(priority)].shed;
}

void AdmissionController::on_cancelled(Priority priority) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.classes[static_cast<std::size_t>(priority)].cancelled;
}

void AdmissionController::on_failed(Priority priority) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.classes[static_cast<std::size_t>(priority)].failed;
}

double AdmissionController::estimate_locked(
    std::span<const std::string_view> stages) const {
    double estimate_s = 0.0;
    for (const auto stage : stages) {
        const auto it = stage_means_.find(stage);
        if (it != stage_means_.end()) estimate_s += it->second.mean_s;
    }
    return estimate_s;
}

void AdmissionController::enforce_budget(
    Priority priority, std::chrono::steady_clock::time_point deadline,
    std::span<const std::string_view> remaining_stages,
    const std::string& label) const {
    double estimate_s = 0.0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        estimate_s = estimate_locked(remaining_stages);
    }
    const auto now = std::chrono::steady_clock::now();
    const auto finish_estimate =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(estimate_s));
    if (finish_estimate <= deadline) return;

    std::ostringstream detail;
    detail << remaining_stages.size() << " stages (est. " << estimate_s
           << " s) left, "
           << std::chrono::duration<double>(deadline - now).count()
           << " s of budget";
    (void)priority;  // the catch site attributes the shed to the class
    throw ShedError(ShedError::Reason::kBudgetExhausted, label, detail.str());
}

AdmissionStats AdmissionController::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace teamplay::core
