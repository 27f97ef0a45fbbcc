#include "core/evaluation_cache.hpp"

#include "core/result_store.hpp"
#include "ir/printer.hpp"
#include "support/fnv.hpp"

namespace teamplay::core {

std::uint64_t fingerprint_program(const ir::Program& program) {
    return support::Fnv1a{}.mix(ir::to_string(program)).value;
}

std::string_view analysis_kind_name(AnalysisKind kind) {
    switch (kind) {
        case AnalysisKind::kCompiledFront: return "front";
        case AnalysisKind::kProfile: return "profile";
        case AnalysisKind::kTaint: return "taint";
    }
    return "?";
}

void EvaluationCache::Stats::merge(const Stats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    store_hits += other.store_hits;
    store_misses += other.store_misses;
    spills += other.spills;
    store_rejects += other.store_rejects;
    remote_hits += other.remote_hits;
    remote_misses += other.remote_misses;
    entries += other.entries;
    resident_cost += other.resident_cost;
}

EvaluationCache::Stats EvaluationCache::Stats::since(
    const Stats& before) const {
    Stats delta = *this;
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.evictions -= before.evictions;
    delta.store_hits -= before.store_hits;
    delta.store_misses -= before.store_misses;
    delta.spills -= before.spills;
    delta.store_rejects -= before.store_rejects;
    delta.remote_hits -= before.remote_hits;
    delta.remote_misses -= before.remote_misses;
    return delta;
}

double evaluation_result_cost(const EvaluationResult& result) {
    double cost = 1.0;
    if (result.front) cost += static_cast<double>(result.front->size());
    return cost;
}

std::shared_ptr<const EvaluationResult> EvaluationCache::lookup(
    const EvaluationKey& key, const Compute& compute) {
    std::promise<std::shared_ptr<const EvaluationResult>> promise;
    Slot slot;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            // Refresh recency; an in-flight entry is not on the LRU list
            // yet (it joins the hot end when its compute completes).
            if (it->second.ready)
                lru_.splice(lru_.begin(), lru_, it->second.lru);
            slot = it->second.slot;
        } else {
            ++stats_.misses;
            slot = promise.get_future().share();
            Entry entry;
            entry.slot = slot;
            entries_.emplace(key, std::move(entry));
            owner = true;
        }
    }
    if (!owner) return slot.get();

    // This thread owns the miss.  The lower tiers go in order — local
    // disk, then the fabric, then work — and a loaded or fetched value was
    // checksum-verified and strictly decoded, so it enters the cache
    // exactly as a computed one would: waiters, LRU admission and
    // eviction cannot tell the difference.
    std::shared_ptr<const EvaluationResult> value;
    bool stored = false;  // the store already holds `value`
    try {
        if (store_ != nullptr) {
            auto loaded = store_->load(key);
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                switch (loaded.status) {
                    case ResultStore::LoadStatus::kHit:
                        ++stats_.store_hits;
                        break;
                    case ResultStore::LoadStatus::kMiss:
                        ++stats_.store_misses;
                        break;
                    case ResultStore::LoadStatus::kReject:
                        ++stats_.store_rejects;
                        break;
                }
            }
            if (loaded.result.has_value()) {
                value = std::make_shared<const EvaluationResult>(
                    std::move(*loaded.result));
                stored = true;
            }
        }
        if (value == nullptr && remote_fetch_) {
            std::optional<EvaluationResult> fetched;
            try {
                fetched = remote_fetch_(key);
            } catch (...) {
                // A fetch hook must swallow transport failures; if one
                // leaks anyway, degrade to a miss — the fabric is an
                // optimisation, never a dependency.
                fetched.reset();
            }
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (fetched.has_value())
                    ++stats_.remote_hits;
                else
                    ++stats_.remote_misses;
            }
            if (fetched.has_value())
                value = std::make_shared<const EvaluationResult>(
                    std::move(*fetched));
        }
        if (value == nullptr)
            value = std::make_shared<const EvaluationResult>(compute());
    } catch (...) {
        // Propagate to every waiter but drop the key so a later call can
        // retry (e.g. after the caller fixes its inputs).
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    promise.set_value(value);
    admit(key, evaluation_result_cost(*value));
    // The store's one write point, after the waiters are served: encoding
    // a compiled front is far too expensive to hold them behind, and a
    // failed append (the store degrades to read-only) costs only the
    // persistence of this one result.
    if (!stored && store_ != nullptr && store_->store(key, *value)) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.spills;
    }
    return value;
}

void EvaluationCache::admit(const EvaluationKey& key, double cost) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    // Unreachable today — only the owner erases its own key (exception
    // path), and eviction only touches completed ones — kept as a guard so
    // a future policy that does drop in-flight slots degrades to
    // "uncached", not to a double-published LRU entry.
    if (it == entries_.end()) return;
    it->second.ready = true;
    it->second.cost = cost;
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    stats_.resident_cost += cost;
    while (budget_.max_entries > 0 && lru_.size() > budget_.max_entries) {
        const auto victim = entries_.find(lru_.back());
        stats_.resident_cost -= victim->second.cost;
        entries_.erase(victim);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::shared_ptr<const EvaluationResult> EvaluationCache::peek(
    const EvaluationKey& key) const {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.ready)
            return it->second.slot.get();
    }
    // Not resident (or still computing): the store may hold it from an
    // earlier lifetime or a sibling's append.  Loaded directly — the probe
    // serves a *peer's* cache, so nothing is admitted here.
    if (store_ != nullptr) {
        auto loaded = store_->load(key);
        if (loaded.result.has_value())
            return std::make_shared<const EvaluationResult>(
                std::move(*loaded.result));
    }
    return nullptr;
}

EvaluationCache::Stats EvaluationCache::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Stats stats = stats_;
    stats.entries = entries_.size();
    return stats;
}

}  // namespace teamplay::core
