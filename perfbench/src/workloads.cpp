#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "catalog.hpp"
#include "core/result_store.hpp"
#include "core/wire.hpp"
#include "layers.hpp"
#include "net/remote_shard.hpp"
#include "net/shard_server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = teamplay::core;
namespace net = teamplay::net;
namespace wire = teamplay::core::wire;

// -- metric catalog -----------------------------------------------------------

const std::vector<Metric>& end_to_end_metrics() {
    static const std::vector<Metric> metrics = {
        {"setup_s", 0, "s"},         {"scenarios_per_s", 0, "1/s"},
        {"cpu_s", 0, "s"},           {"p50_ms", 0, "ms"},
        {"p95_ms", 0, "ms"},         {"success_frac", 0, "ratio"},
        {"peak_rss_mb", 0, "MB"},
    };
    return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
    static const std::vector<Metric> metrics = {
        {"stage.parse_ms", 0, "ms"},
        {"stage.analyse_ms", 0, "ms"},
        {"stage.schedule_ms", 0, "ms"},
        {"stage.contract_ms", 0, "ms"},
        {"stage.certify_ms", 0, "ms"},
        {"engine.queue_wait_ms.p50", 0, "ms"},
        {"engine.queue_wait_ms.p95", 0, "ms"},
        {"engine.analyse_max_s", 0, "s"},
        {"engine.parallel_eff", 0, "ratio"},
        {"cache.hits", 0, "count"},
        {"cache.misses", 0, "count"},
        {"cache.hit_ratio", 0, "ratio"},
        {"cache.evictions", 0, "count"},
        {"cache.computes", 0, "count"},
        {"admission.rejected", 0, "count"},
        {"admission.shed", 0, "count"},
        {"csl.parse_us", 0, "us"},
        {"ir.validate_us", 0, "us"},
        {"ir.fingerprint_us", 0, "us"},
        {"compiler.optimise_ms", 0, "ms"},
        {"compiler.compile_calls", 0, "count"},
        {"compiler.compile_ms", 0, "ms"},
        {"compiler.transform_ms", 0, "ms"},
        {"security.taint_ms", 0, "ms"},
        {"wcet.analyse_ms", 0, "ms"},
        {"energy.analyse_ms", 0, "ms"},
        {"profiler.profile_ms", 0, "ms"},
        {"sim.runs", 0, "count"},
        {"sim.run_us", 0, "us"},
        {"coordination.schedule_ms", 0, "ms"},
        {"coordination.glue_ms", 0, "ms"},
        {"coordination.rta_us", 0, "us"},
        {"contracts.check_us", 0, "us"},
        {"wire.encode_request_us", 0, "us"},
        {"wire.decode_request_us", 0, "us"},
        {"wire.encode_report_us", 0, "us"},
        {"wire.decode_report_us", 0, "us"},
        {"wire.decode_result_us", 0, "us"},
        {"wire.report_kb", 0, "KB"},
        {"net.encode_ms", 0, "ms"},
        {"net.rtt_ms", 0, "ms"},
        {"net.decode_ms", 0, "ms"},
        {"net.transport_ms", 0, "ms"},
        {"store.open_ms", 0, "ms"},
        {"store.load_us", 0, "us"},
        {"store.load_hits", 0, "count"},
        {"store.load_rejects", 0, "count"},
        {"flow.static_share", 0, "ratio"},
        {"flow.profiled_share", 0, "ratio"},
        {"gen.lag_ms.max", 0, "ms"},
        {"trace.coverage", 0, "ratio"},
        {"trace.overhead", 0, "ratio"},
    };
    return metrics;
}

std::string to_json(const RunResult& result) {
    std::ostringstream os;
    os << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto& metric = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.value);
        os << (i ? ", " : "") << '"' << metric.name << "\": {\"value\": "
           << value << ", \"unit\": \"" << metric.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start, Clock::time_point end = Clock::now()) {
    return std::chrono::duration<double>(end - start).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

core::ScenarioEngine::Options engine_options(
    std::size_t workers, std::shared_ptr<core::ResultStore> store = nullptr) {
    core::ScenarioEngine::Options options;
    options.worker_threads = workers;
    options.result_store = std::move(store);
    return options;
}

constexpr const char* kEngineStages[] = {"parse", "analyse", "schedule",
                                         "contract", "certify"};

bool is_engine_stage(const std::string& stage) {
    for (const char* name : kEngineStages)
        if (stage == name) return true;
    return false;
}

/// Correctness and latency bookkeeping of one run.
class Ledger {
public:
    explicit Ledger(std::map<std::string, Digest> golden)
        : golden_(std::move(golden)) {}

    void record(const std::string& label, const core::ToolchainReport& report,
                double latency_s) {
        ++attempted;
        const auto it = golden_.find(label);
        if (it == golden_.end() || !(it->second == digest_of(report))) {
            ++failed;
            std::fprintf(stderr, "golden mismatch: %s\n", label.c_str());
        }
        latencies_s.push_back(latency_s);
        double engine_laps = 0.0;
        double rtt = -1.0;
        for (const auto& lap : report.stage_laps) {
            auto& sum = laps_[lap.stage];
            sum.first += lap.seconds;
            ++sum.second;
            if (is_engine_stage(lap.stage)) engine_laps += lap.seconds;
            if (lap.stage == "analyse")
                analyse_max_s = std::max(analyse_max_s, lap.seconds);
            if (lap.stage == "net/rtt") rtt = lap.seconds;
        }
        queue_wait_s.push_back(std::max(0.0, latency_s - engine_laps));
        if (rtt >= 0.0) transport_s.push_back(rtt - engine_laps);
    }

    void record_failure(const std::string& label, const char* what) {
        ++attempted;
        ++failed;
        std::fprintf(stderr, "request %s failed: %s\n", label.c_str(), what);
    }

    /// Mean lap of `stage` per scenario that ran it, in seconds.
    [[nodiscard]] double mean_lap_s(const std::string& stage) const {
        const auto it = laps_.find(stage);
        return it == laps_.end() || it->second.second == 0
                   ? 0.0
                   : it->second.first /
                         static_cast<double>(it->second.second);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencies_s;
    std::vector<double> queue_wait_s;  ///< latency - sum of stage laps
    std::vector<double> transport_s;   ///< rtt - server-side laps
    double analyse_max_s = 0.0;

private:
    std::map<std::string, Digest> golden_;
    std::map<std::string, std::pair<double, std::uint64_t>> laps_;
};

/// Metric values by name, printed in catalog order.
class Values {
public:
    void set(const std::string& name, double value) { values_[name] = value; }

    [[nodiscard]] std::vector<Metric> in_order(
        const std::vector<Metric>& catalog) const {
        std::vector<Metric> metrics = catalog;
        for (auto& metric : metrics) {
            const auto it = values_.find(metric.name);
            if (it != values_.end()) metric.value = it->second;
        }
        return metrics;
    }

    void check_known(const std::vector<Metric>& catalog) const {
        for (const auto& [name, value] : values_) {
            const bool known =
                std::any_of(catalog.begin(), catalog.end(),
                            [&](const Metric& m) { return m.name == name; });
            if (!known)
                throw std::logic_error("metric not in catalog: " + name);
        }
    }

private:
    std::map<std::string, double> values_;
};

/// The seven end-to-end metrics; refuses a p95 without ten samples past it.
void end_to_end(Values& values, const std::vector<double>& setup_s,
                double scenarios_per_s, double cpu_s, const Ledger& ledger) {
    // Medians over chunks of 200 consecutive completions: each chunk's p95
    // keeps 10 samples beyond it.
    constexpr std::size_t kChunk = 200;
    const auto p50 = chunked_percentile(ledger.latencies_s, 0.5, kChunk);
    const auto p95 = chunked_percentile(ledger.latencies_s, 0.95, kChunk);
    if (!p50 || !p95)
        throw std::runtime_error(
            "p95 refused: " + std::to_string(ledger.latencies_s.size()) +
            " samples leave fewer than 10 beyond it");
    values.set("setup_s", median(setup_s));
    values.set("scenarios_per_s", scenarios_per_s);
    values.set("cpu_s", cpu_s);
    values.set("p50_ms", 1e3 * *p50);
    values.set("p95_ms", 1e3 * *p95);
    values.set("success_frac",
               ledger.attempted == 0
                   ? 0.0
                   : static_cast<double>(ledger.attempted - ledger.failed) /
                         static_cast<double>(ledger.attempted));
    values.set("peak_rss_mb", peak_rss_mb());
}

void stage_metrics(Values& values, const Ledger& ledger) {
    for (const char* stage : kEngineStages)
        values.set(std::string("stage.") + stage + "_ms",
                   1e3 * ledger.mean_lap_s(stage));
}

void cache_metrics(Values& values, const core::EvaluationCache::Stats& stats) {
    values.set("cache.hits", static_cast<double>(stats.hits));
    values.set("cache.misses", static_cast<double>(stats.misses));
    values.set("cache.hit_ratio", stats.hit_ratio());
    values.set("cache.evictions", static_cast<double>(stats.evictions));
    values.set("cache.computes",
               static_cast<double>(stats.misses - stats.store_hits -
                                   stats.remote_hits));
}

/// Per-layer means from the traced re-issue, plus coverage and overhead
/// against the untraced run's CPU and wall time.
void span_metrics(Values& values, LayerTracer& layers, double untraced_cpu_s,
                  double untraced_wall_s) {
    const auto totals = totals_by_name(layers.tracer().spans());
    const auto mean = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.mean_self_s();
    };
    const auto total = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_s;
    };
    values.set("csl.parse_us", 1e6 * mean("csl.parse"));
    values.set("ir.validate_us", 1e6 * mean("ir.validate"));
    values.set("ir.fingerprint_us", 1e6 * mean("ir.fingerprint"));
    values.set("compiler.optimise_ms", 1e3 * mean("compiler.optimise"));
    values.set("compiler.compile_calls",
               static_cast<double>(layers.compile_calls()));
    values.set("compiler.compile_ms", 1e3 * mean("compiler.compile"));
    // Transform = compile minus the analysers compile() runs on the result
    // (per compiled version; the probe re-runs them once per version).
    const double analysers_s =
        mean("security.taint") + mean("wcet.analyse") + mean("energy.analyse");
    values.set("compiler.transform_ms",
               totals.contains("compiler.compile")
                   ? 1e3 * (mean("compiler.compile") - analysers_s)
                   : 0.0);
    values.set("security.taint_ms", 1e3 * mean("security.taint"));
    values.set("wcet.analyse_ms", 1e3 * mean("wcet.analyse"));
    values.set("energy.analyse_ms", 1e3 * mean("energy.analyse"));
    values.set("profiler.profile_ms", 1e3 * mean("profiler.profile"));
    values.set("sim.runs", static_cast<double>(layers.sim_runs()));
    values.set("sim.run_us", 1e6 * mean("sim.run"));
    values.set("coordination.schedule_ms",
               1e3 * mean("coordination.schedule"));
    values.set("coordination.glue_ms", 1e3 * mean("coordination.glue"));
    values.set("coordination.rta_us", 1e6 * mean("coordination.rta"));
    values.set("contracts.check_us", 1e6 * mean("contracts.check"));
    values.set("wire.encode_request_us", 1e6 * mean("wire.encode_request"));
    values.set("wire.decode_request_us", 1e6 * mean("wire.decode_request"));
    values.set("wire.encode_report_us", 1e6 * mean("wire.encode_report"));
    values.set("wire.decode_report_us", 1e6 * mean("wire.decode_report"));
    values.set("wire.decode_result_us", 1e6 * mean("wire.decode_result"));
    values.set("store.load_us", 1e6 * mean("store.load"));

    const double busy_s = layers.tracer().root_time_s("request");
    if (busy_s > 0.0) {
        values.set("flow.static_share", total("compiler.optimise") / busy_s);
        values.set("flow.profiled_share",
                   (total("profiler.profile") +
                    total("security.taint_entry")) /
                       busy_s);
    }
    values.set("trace.coverage",
               untraced_cpu_s > 0.0 ? busy_s / untraced_cpu_s : 0.0);
    values.set("trace.overhead",
               untraced_wall_s > 0.0 ? busy_s / untraced_wall_s : 0.0);
}

RunResult finish(const RunArgs& args, const Values& values,
                 const Ledger& ledger, std::uint64_t extra_failures) {
    const auto& catalog =
        args.trace ? per_layer_metrics() : end_to_end_metrics();
    values.check_known(catalog);
    RunResult result;
    result.attempted = ledger.attempted;
    result.failed = ledger.failed + extra_failures;
    result.correct = result.failed == 0 && result.attempted > 0;
    result.metrics = values.in_order(catalog);
    return result;
}

void write_spans(const RunArgs& args, const LayerTracer& layers) {
    layers.tracer().write_jsonl(args.work_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".jsonl");
}

// -- cold_sweep -----------------------------------------------------------------

constexpr std::size_t kColdWorkers = 3;  // + the waiting caller = 4 threads
constexpr std::size_t kMinCompletions = 200;

RunResult run_cold_sweep(const RunArgs& args) {
    Ledger ledger(load_golden(args.golden_path));
    const auto universe = cold_sweep_universe();
    std::mt19937_64 rng(args.seed);
    std::vector<double> setup_s;
    std::vector<double> batch_cpu_s;
    double wall_s = 0.0;
    std::size_t completed = 0;
    core::EvaluationCache::Stats cache;
    Values values;

    bool warm_up = true;
    auto window_start = Clock::now();
    do {
        auto order = universe;
        std::shuffle(order.begin(), order.end(), rng);

        const auto setup_start = Clock::now();
        const Catalog catalog;
        std::vector<core::ScenarioRequest> requests;
        for (const auto& config : order)
            requests.push_back(catalog.request(config));
        auto engine = std::make_unique<core::ScenarioEngine>(
            engine_options(kColdWorkers));
        setup_s.push_back(since(setup_start));

        std::vector<Clock::time_point> done(requests.size());
        const double cpu_start = cpu_seconds();
        const auto start = Clock::now();
        std::vector<core::ScenarioTicket> tickets;
        for (std::size_t i = 0; i < requests.size(); ++i)
            tickets.push_back(engine->submit(
                requests[i], [&done, i](const core::ScenarioOutcome&) {
                    done[i] = Clock::now();
                }));
        std::vector<core::ToolchainReport> reports(requests.size());
        std::vector<bool> ok(requests.size(), false);
        for (std::size_t i = 0; i < tickets.size(); ++i) {
            try {
                reports[i] = tickets[i].get();
                ok[i] = true;
            } catch (const std::exception& error) {
                ledger.record_failure(requests[i].label, error.what());
            }
        }
        const double batch_wall = since(start);
        const double batch_cpu = cpu_seconds() - cpu_start;
        if (warm_up) {
            // The process's first batch runs ~2x slower (allocator and
            // page warm-up); it is untimed, like any lazy set-up.
            warm_up = false;
            window_start = Clock::now();
            continue;
        }
        for (std::size_t i = 0; i < requests.size(); ++i)
            if (ok[i])
                ledger.record(requests[i].label, reports[i],
                              since(start, done[i]));
        batch_cpu_s.push_back(batch_cpu);
        wall_s += batch_wall;
        completed += requests.size();
        cache.merge(engine->cache_stats());

        if (args.trace) {
            // One batch is the untraced reference; re-issue its work.
            stage_metrics(values, ledger);
            cache_metrics(values, cache);
            values.set("engine.analyse_max_s", ledger.analyse_max_s);
            values.set("engine.parallel_eff",
                       batch_cpu / (batch_wall *
                                    static_cast<double>(engine->concurrency())));
            engine.reset();
            LayerTracer layers;
            std::uint64_t trace_failures = 0;
            for (std::size_t i = 0; i < requests.size(); ++i) {
                if (!ok[i]) continue;
                const Tracer::Scope root(layers.tracer(), "request", i + 1);
                if (!layers.reissue(requests[i], reports[i], i + 1, true))
                    ++trace_failures;
            }
            trace_failures += layers.run_probes();
            span_metrics(values, layers, batch_cpu, batch_wall);
            write_spans(args, layers);
            return finish(args, values, ledger, trace_failures);
        }
    } while (since(window_start) < args.seconds ||
             completed < kMinCompletions);

    end_to_end(values, setup_s, static_cast<double>(completed) / wall_s,
               mean(batch_cpu_s), ledger);
    return finish(args, values, ledger, 0);
}

// -- service_mix ----------------------------------------------------------------

constexpr double kServiceRate = 40.0;  // arrivals per second
// Every 400th arrival carries fresh analysis keys.  While a cold compute
// runs, warm requests that help-drain the pool execute its fan-out tuples
// and finish late; each cold delays ~2-3% of a second's arrivals by up
// to ~150 ms.  p95 is stable only inside a dense part of the latency
// distribution: with the delayed share near 5% (every 40th or 200th
// arrival cold) it swung 10-120 ms between seeds, so the cold share is
// kept low enough (~1% delayed) that p95 sits in the warm body.  Fixed
// positions keep the cold work of a run identical across seeds.
constexpr std::size_t kServiceColdEvery = 400;
constexpr std::size_t kServiceWorkers = 3;  // generator keeps the 4th core
// Set-up is sampled about once a second across the window, so its median
// sees the same machine-speed phases as the measurement.
constexpr double kSetupSampleGap_s = 1.0;

struct Arrival {
    double due_s = 0.0;
    Config config;
    core::Priority priority = core::Priority::kBatch;
    bool cold = false;
};

std::vector<Arrival> service_arrivals(std::uint64_t seed, double seconds) {
    const auto warm = service_warm_universe();
    const auto cold = service_cold_pool();
    std::mt19937_64 rng(seed);
    // Exactly rate x seconds arrivals: a Poisson stream conditioned on its
    // count (exponential gaps rescaled to span the window), so the offered
    // load is the same on every seed.
    const auto count =
        static_cast<std::size_t>(std::lround(kServiceRate * seconds));
    std::exponential_distribution<double> gap(1.0);
    std::vector<double> gaps(count + 1);
    for (auto& g : gaps) g = gap(rng);
    double span = 0.0;
    for (const double g : gaps) span += g;
    std::uniform_int_distribution<std::size_t> pick_warm(0, warm.size() - 1);
    std::discrete_distribution<int> pick_priority({1, 3, 1});
    std::vector<Arrival> arrivals;
    std::size_t next_cold = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += gaps[i] * seconds / span;
        Arrival arrival;
        arrival.due_s = t;
        arrival.cold = i % kServiceColdEvery == kServiceColdEvery / 2;
        arrival.config = arrival.cold ? cold[next_cold++ % cold.size()]
                                      : warm[pick_warm(rng)];
        arrival.priority = static_cast<core::Priority>(pick_priority(rng));
        arrivals.push_back(std::move(arrival));
    }
    return arrivals;
}

/// Inputs built and engine up: what service_mix's set-up time covers.
struct ServiceRig {
    std::unique_ptr<Catalog> catalog;
    std::vector<core::ScenarioRequest> requests;
    std::unique_ptr<core::ScenarioEngine> engine;
};

ServiceRig service_setup(const std::vector<std::string>& apps,
                         const std::vector<Arrival>& arrivals) {
    ServiceRig rig;
    rig.catalog = std::make_unique<Catalog>(apps);
    for (const auto& arrival : arrivals) {
        auto request = rig.catalog->request(arrival.config);
        request.priority = arrival.priority;
        rig.requests.push_back(std::move(request));
    }
    rig.engine =
        std::make_unique<core::ScenarioEngine>(engine_options(kServiceWorkers));
    return rig;
}

RunResult run_service_mix(const RunArgs& args) {
    Ledger ledger(load_golden(args.golden_path));
    const auto arrivals = service_arrivals(args.seed, args.seconds);
    const std::vector<std::string> apps = {"pill", "space", "parking-m0",
                                           "uav-tk1", "rover-tk1"};

    std::vector<double> setup_s;
    const auto setup_start = Clock::now();
    auto rig = service_setup(apps, arrivals);
    setup_s.push_back(since(setup_start));
    const auto& catalog = rig.catalog;
    const auto& requests = rig.requests;
    auto& engine = rig.engine;

    // Untimed preparation: the known configurations' analyses are warm
    // before the stream starts (a long-lived service's steady state).
    {
        std::vector<core::ScenarioRequest> prewarm;
        for (const auto& app : apps)
            prewarm.push_back(catalog->request({app, 42, 1, false}));
        (void)engine->run_all(prewarm);
    }
    const auto cache_before = engine->cache_stats();
    const auto admission_before = engine->admission_stats().totals();

    std::vector<Clock::time_point> done(requests.size());
    std::vector<core::ScenarioTicket> tickets;
    tickets.reserve(requests.size());
    double max_lag_s = 0.0;
    const double cpu_start = cpu_seconds();
    const auto start = Clock::now() + std::chrono::milliseconds(10);
    const auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(arrivals[i].due_s));
    };
    // Throwaway set-ups, timed about once a second on their own thread, so
    // the generator never waits behind one (tearing a spare engine down
    // joins its workers).  setup_s is read only after the join.
    struct Sampler {
        std::atomic<bool> stop{false};
        std::thread thread;
        void finish() {
            stop = true;
            if (thread.joinable()) thread.join();
        }
        ~Sampler() { finish(); }
    } sampler;
    sampler.thread = std::thread([&] {
        while (!sampler.stop) {
            const auto wake =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       kSetupSampleGap_s));
            while (!sampler.stop && Clock::now() < wake)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            if (sampler.stop) break;
            const auto sample_start = Clock::now();
            const auto spare = service_setup(apps, arrivals);
            setup_s.push_back(since(sample_start));
        }
    });
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::this_thread::sleep_until(due(i));
        max_lag_s = std::max(max_lag_s, since(due(i)));
        tickets.push_back(engine->submit(
            requests[i],
            [&done, i](const core::ScenarioOutcome&) { done[i] = Clock::now(); }));
    }
    for (const auto& ticket : tickets) ticket.wait();
    const double cpu_s = cpu_seconds() - cpu_start;
    sampler.finish();
    // Reports are kept only for the traced re-issue.
    std::vector<core::ToolchainReport> reports(args.trace ? requests.size()
                                                          : 0);
    std::vector<bool> ok(requests.size(), false);
    Clock::time_point last = start;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        try {
            auto report = tickets[i].get();
            ++completed;
            last = std::max(last, done[i]);
            // Open loop: latency runs from the due time, not the submit.
            ledger.record(requests[i].label, report, since(due(i), done[i]));
            if (args.trace) reports[i] = std::move(report);
            ok[i] = true;
        } catch (const std::exception& error) {
            ledger.record_failure(requests[i].label, error.what());
        }
    }
    const double wall_s = since(start, last);
    const auto admission =
        engine->admission_stats().totals().since(admission_before);

    Values values;
    if (!args.trace) {
        end_to_end(values, setup_s, static_cast<double>(completed) / wall_s,
                   cpu_s, ledger);
        return finish(args, values, ledger, 0);
    }

    stage_metrics(values, ledger);
    cache_metrics(values, engine->cache_stats().since(cache_before));
    values.set("engine.queue_wait_ms.p50",
               1e3 * percentile(ledger.queue_wait_s, 0.5));
    values.set("engine.queue_wait_ms.p95",
               1e3 * percentile(ledger.queue_wait_s, 0.95));
    values.set("admission.rejected", static_cast<double>(admission.rejected));
    values.set("admission.shed", static_cast<double>(admission.shed));
    values.set("gen.lag_ms.max", 1e3 * max_lag_s);
    engine.reset();

    LayerTracer layers;
    std::uint64_t trace_failures = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!ok[i]) continue;
        const Tracer::Scope root(layers.tracer(), "request", i + 1);
        if (!layers.reissue(requests[i], reports[i], i + 1, arrivals[i].cold))
            ++trace_failures;
    }
    trace_failures += layers.run_probes();
    span_metrics(values, layers, cpu_s, wall_s);
    write_spans(args, layers);
    return finish(args, values, ledger, trace_failures);
}

// -- remote_warm ----------------------------------------------------------------

constexpr std::size_t kRemoteWorkers = 3;
constexpr std::size_t kRemoteInFlight = 2;
constexpr std::size_t kRemoteRound = 200;  // requests per CPU sample
constexpr std::size_t kRemoteCacheBudget = 8;

/// The (key, result frame) records of every segment in a store directory,
/// read with the wire codec's public frame reader.
std::vector<std::pair<core::EvaluationKey, std::vector<std::uint8_t>>>
scan_store(const std::filesystem::path& directory) {
    std::vector<std::pair<core::EvaluationKey, std::vector<std::uint8_t>>>
        records;
    for (const auto& file : std::filesystem::directory_iterator(directory)) {
        std::ifstream in(file.path(), std::ios::binary);
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        if (bytes.size() < 6) continue;
        std::size_t offset = 6;  // "TPSG" + u16 version
        while (true) {
            const auto key_frame = wire::next_frame(bytes, offset);
            if (!key_frame) break;
            const auto result_frame = wire::next_frame(bytes, offset);
            if (!result_frame) break;
            records.emplace_back(
                wire::decode_key(*key_frame),
                std::vector<std::uint8_t>(result_frame->begin(),
                                          result_frame->end()));
        }
    }
    return records;
}

struct RemoteRig {
    std::shared_ptr<core::ResultStore> store;
    std::unique_ptr<net::ShardServer> server;
    std::unique_ptr<net::RemoteShard> client;
    double store_open_s = 0.0;
};

/// Client first, then the server (which drains in-flight work), then the
/// store the server's engine holds.
void close_rig(RemoteRig& rig) {
    rig.client.reset();
    rig.server.reset();
    rig.store.reset();
}

RemoteRig open_rig(const std::filesystem::path& directory) {
    RemoteRig rig;
    const auto open_start = Clock::now();
    rig.store = std::make_shared<core::ResultStore>(directory);
    rig.store_open_s = since(open_start);
    net::ShardServer::Options options;
    options.engine = engine_options(kRemoteWorkers, rig.store);
    options.engine.cache_budget.max_entries = kRemoteCacheBudget;
    rig.server = std::make_unique<net::ShardServer>(std::move(options));
    rig.client = std::make_unique<net::RemoteShard>(
        net::RemoteShard::Options{.port = rig.server->port()});
    if (!rig.client->healthy())
        throw std::runtime_error("remote_warm: client cannot connect");
    return rig;
}

RunResult run_remote_warm(const RunArgs& args) {
    namespace fs = std::filesystem;
    Ledger ledger(load_golden(args.golden_path));
    const auto universe = remote_warm_universe();
    const std::vector<std::string> apps = {"pill", "space", "parking-m0",
                                           "uav-tk1"};
    const fs::path directory =
        fs::path(args.work_dir) /
        ("remote_warm-store-" + std::to_string(::getpid()));
    fs::remove_all(directory);
    fs::create_directories(directory);
    struct Cleanup {
        fs::path path;
        ~Cleanup() {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    } cleanup{directory};

    // Untimed preparation: fill the store with every analysis the
    // universe needs (scheduler seeds share analysis keys).
    {
        const Catalog catalog(apps);
        std::vector<core::ScenarioRequest> fill;
        for (const auto& app : apps)
            fill.push_back(catalog.request({app, 42, 1, false}));
        core::ScenarioEngine engine(engine_options(
            kRemoteWorkers, std::make_shared<core::ResultStore>(directory)));
        (void)engine.run_all(fill);
        engine.flush_result_store();
    }

    std::vector<double> setup_s;
    std::vector<double> store_open_s;
    const auto timed_setup = [&] {
        const auto start = Clock::now();
        auto catalog = std::make_unique<Catalog>(apps);
        auto rig = open_rig(directory);
        setup_s.push_back(since(start));
        store_open_s.push_back(rig.store_open_s);
        return std::make_pair(std::move(catalog), std::move(rig));
    };
    auto [catalog, rig] = timed_setup();

    // Closed loop: the predictable apps weighted 3:1 over the UAV.
    std::mt19937_64 rng(args.seed);
    std::discrete_distribution<std::size_t> pick_app({3, 3, 3, 1});
    std::uniform_int_distribution<std::size_t> pick_seed(0, 15);
    const auto next_config = [&] {
        return universe[pick_app(rng) * 16 + pick_seed(rng)];
    };

    struct InFlight {
        core::ScenarioTicket ticket;
        std::string label;
        Clock::time_point submitted;
        std::shared_ptr<Clock::time_point> done;
    };
    std::vector<double> round_cpu_s;
    double wall_s = 0.0;
    std::size_t completed = 0;
    std::map<std::string, core::ToolchainReport> kept;  // trace: one each
    std::map<std::string, std::uint64_t> issued;        // trace: per label
    const auto window_start = Clock::now();
    do {
        const double cpu_start = cpu_seconds();
        const auto start = Clock::now();
        std::deque<InFlight> in_flight;
        std::size_t submitted = 0;
        while (submitted < kRemoteRound || !in_flight.empty()) {
            while (in_flight.size() < kRemoteInFlight &&
                   submitted < kRemoteRound) {
                const auto config = next_config();
                auto done = std::make_shared<Clock::time_point>();
                const auto submit_time = Clock::now();
                auto ticket = rig.client->submit(
                    catalog->request(config),
                    [done](const core::ScenarioOutcome&) {
                        *done = Clock::now();
                    });
                in_flight.push_back({std::move(ticket), config.label(),
                                     submit_time, std::move(done)});
                ++submitted;
            }
            auto front = std::move(in_flight.front());
            in_flight.pop_front();
            try {
                auto report = front.ticket.get();
                ledger.record(front.label, report,
                              since(front.submitted, *front.done));
                ++completed;
                if (args.trace) {
                    ++issued[front.label];
                    kept.try_emplace(front.label, std::move(report));
                }
            } catch (const std::exception& error) {
                ledger.record_failure(front.label, error.what());
            }
        }
        wall_s += since(start);
        round_cpu_s.push_back(cpu_seconds() - cpu_start);
        // A throwaway set-up between rounds, so set-up samples span the
        // window's machine-speed phases.
        auto spare = timed_setup();
        close_rig(spare.second);
    } while (since(window_start) < args.seconds ||
             completed < kMinCompletions);

    const auto cache = rig.server->engine().cache_stats();
    const auto store_stats = rig.store->stats();
    Values values;
    std::uint64_t extra_failures = 0;
    if (cache.misses != cache.store_hits + cache.remote_hits) {
        // The workload's premise: every analysis comes from the store.
        std::fprintf(stderr, "remote_warm: %llu analyses recomputed\n",
                     static_cast<unsigned long long>(
                         cache.misses - cache.store_hits - cache.remote_hits));
        ++extra_failures;
    }
    if (!args.trace) {
        end_to_end(values, setup_s, static_cast<double>(completed) / wall_s,
                   mean(round_cpu_s), ledger);
        return finish(args, values, ledger, extra_failures);
    }

    stage_metrics(values, ledger);
    cache_metrics(values, cache);
    values.set("net.encode_ms", 1e3 * ledger.mean_lap_s("net/encode"));
    values.set("net.rtt_ms", 1e3 * ledger.mean_lap_s("net/rtt"));
    values.set("net.decode_ms", 1e3 * ledger.mean_lap_s("net/decode"));
    values.set("net.transport_ms", 1e3 * mean(ledger.transport_s));
    values.set("store.open_ms", 1e3 * median(store_open_s));
    values.set("store.load_hits", static_cast<double>(store_stats.load_hits));
    values.set("store.load_rejects",
               static_cast<double>(store_stats.load_rejects));
    const double untraced_cpu_s =
        mean(round_cpu_s) * static_cast<double>(round_cpu_s.size());
    close_rig(rig);

    // Re-issue every request of the window along the remote path: client
    // encode, server decode, the server-side pipeline (analyses served from
    // the store, so not re-run), report encode and client decode.
    LayerTracer layers;
    auto& tracer = layers.tracer();
    std::uint64_t request_id = 0;
    double report_bytes = 0.0;
    std::uint64_t reports_encoded = 0;
    for (const auto& [label, count] : issued) {
        const auto config_it =
            std::find_if(universe.begin(), universe.end(),
                         [&](const Config& c) { return c.label() == label; });
        const auto& engine_report = kept.at(label);
        for (std::uint64_t n = 0; n < count; ++n) {
            ++request_id;
            const Tracer::Scope root(tracer, "request", request_id);
            wire::Buffer request_frame;
            {
                const Tracer::Scope span(tracer, "wire.encode_request",
                                         request_id);
                request_frame = wire::encode(catalog->request(*config_it));
            }
            std::optional<wire::ScenarioRequestFrame> frame;
            {
                const Tracer::Scope span(tracer, "wire.decode_request",
                                         request_id);
                frame.emplace(wire::decode_request(request_frame));
            }
            if (!layers.reissue(frame->request(), engine_report, request_id,
                                false))
                ++extra_failures;
            wire::Buffer report_frame;
            {
                const Tracer::Scope span(tracer, "wire.encode_report",
                                         request_id);
                report_frame = wire::encode(engine_report);
            }
            {
                const Tracer::Scope span(tracer, "wire.decode_report",
                                         request_id);
                (void)wire::decode_report(report_frame);
            }
            report_bytes += static_cast<double>(report_frame.size());
            ++reports_encoded;
        }
    }
    values.set("wire.report_kb",
               reports_encoded ? report_bytes / 1024.0 /
                                     static_cast<double>(reports_encoded)
                               : 0.0);
    // Probes: how long one store load and one result decode take.
    {
        const auto records = scan_store(directory);
        const Tracer::Scope root(tracer, "probe", 0);
        core::ResultStore store(directory);
        for (const auto& [key, frame] : records) {
            {
                const Tracer::Scope span(tracer, "store.load", 0);
                if (store.load(key).status !=
                    core::ResultStore::LoadStatus::kHit)
                    ++extra_failures;
            }
            const Tracer::Scope span(tracer, "wire.decode_result", 0);
            (void)wire::decode_result(frame);
        }
    }
    span_metrics(values, layers, untraced_cpu_s, wall_s);
    write_spans(args, layers);
    return finish(args, values, ledger, extra_failures);
}

}  // namespace

RunResult run_workload(const RunArgs& args) {
    if (args.workload == "cold_sweep") return run_cold_sweep(args);
    if (args.workload == "service_mix") return run_service_mix(args);
    if (args.workload == "remote_warm") return run_remote_warm(args);
    throw std::invalid_argument("unknown workload: " + args.workload);
}

}  // namespace perfbench
