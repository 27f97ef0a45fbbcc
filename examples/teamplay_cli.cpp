// Command-line front end for the toolchain: pick a built-in use case (or
// feed a CSL file against one of its programs), run it through the
// ScenarioEngine, and print the full report — schedule Gantt, per-task
// version choices, generated glue, certificate.  With `--all`, every
// built-in use case runs as one parallel batch and the engine's throughput
// statistics are reported.
//
// With `--stream`, scenarios are submitted through the engine's async
// `submit` API and a completion line is printed the moment each scenario
// finishes (completion order, not request order) — the service-core view.
//
//   $ ./example_teamplay_cli pill
//   $ ./example_teamplay_cli space --makespan
//   $ ./example_teamplay_cli uav --platform jetson-tx2
//   $ ./example_teamplay_cli parking --csl my_budgets.csl
//   $ ./example_teamplay_cli rover --platform jetson-nano
//   $ ./example_teamplay_cli --all --jobs 4 --quiet
//   $ ./example_teamplay_cli --all --jobs 4 --stream --cache-budget 16
//   $ ./example_teamplay_cli --serve 7791 --jobs 4
//   $ ./example_teamplay_cli --all --remote 127.0.0.1:7791
//
// The process runs one engine.  `--serve <port>` turns it into a shard
// server: that engine behind the fabric RPC loop, until SIGINT/SIGTERM;
// only the flags that configure the served engine may accompany it.
// `--remote host:port` (repeatable) builds no engine and sends every
// scenario over the wire instead, routed across the remotes by the
// structural fingerprint of its primary kernel (net::Router), so the
// flags that configure a local engine are usage errors beside it.
// `--fetch-peer host:port` consults the peer's warm cache on local misses
// before recomputing.  Numeric flags take decimal or 0x hex; any other
// value is a usage error (exit 2).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/advisor.hpp"
#include "core/result_store.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "sim/trace.hpp"
#include "support/units.hpp"
#include "usecases/apps.hpp"

using namespace teamplay;

namespace {

void usage() {
    std::puts(
        "usage: example_teamplay_cli "
        "<pill|space|uav|rover|parking|--all> [options]\n"
        "  --platform <name>   uav/rover/parking only: apalis-tk1,\n"
        "                      jetson-tx2, jetson-nano (uav/rover),\n"
        "                      nucleo-f091 (parking)\n"
        "  --csl <file>        override the built-in CSL annotations\n"
        "  --makespan          schedule for makespan instead of energy\n"
        "  --seed <n>          search seed (default 42)\n"
        "  --jobs <n>          engine worker threads (default 0 = caller)\n"
        "  --serve <port>      run as a shard server: bind the port and\n"
        "                      serve scenario RPCs until SIGINT/SIGTERM\n"
        "                      (--jobs, --cache-budget, --queue-depth and\n"
        "                      --store-dir configure the served engine;\n"
        "                      any other flag is a usage error beside it)\n"
        "  --remote <h:p>      run every scenario on remote shard servers,\n"
        "                      routed by kernel structural fingerprint\n"
        "                      (repeatable; no local engine is built, so\n"
        "                      --jobs, --cache-budget, --queue-depth,\n"
        "                      --store-dir and --fetch-peer are usage\n"
        "                      errors beside it)\n"
        "  --fetch-peer <h:p>  consult this fabric peer's cache on local\n"
        "                      misses before recomputing (repeatable)\n"
        "  --stream            submit scenarios asynchronously and print\n"
        "                      each result as it completes\n"
        "  --priority <p>      admission class for every scenario:\n"
        "                      interactive, batch (default), background\n"
        "  --deadline-ms <n>   per-scenario deadline; requests that cannot\n"
        "                      meet it are rejected at admission or shed at\n"
        "                      the next stage boundary (retryable)\n"
        "  --queue-depth <n>   bound each priority class's admission queue\n"
        "                      at n (default 0 = unbounded)\n"
        "  --cache-budget <n>  evict evaluation-cache entries beyond n\n"
        "                      (default 0 = unbounded)\n"
        "  --store-dir <dir>   persistent result store: misses load from\n"
        "                      it before computing, each new result is\n"
        "                      appended when it is computed, so a\n"
        "                      restarted run warm-starts from disk\n"
        "  --cert-dump <dir>   write each scenario's certificate text to\n"
        "                      <dir>/<label>.cert (byte-identity audits)\n"
        "  --quiet             only print the certificate verdict");
}

/// Parse a numeric flag's value (support::parse_count); on failure print
/// a usage error naming the flag and return false.
bool parse_flag(std::string_view flag, const char* text, std::uint64_t max,
                std::uint64_t& value) {
    if (support::parse_count(text, max, value)) return true;
    std::fprintf(stderr,
                 "error: %.*s expects a decimal or 0x count in [0, %llu], "
                 "got \"%s\"\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<unsigned long long>(max), text);
    return false;
}

void print_result_store(const core::ScenarioEngine& engine,
                        const std::shared_ptr<core::ResultStore>& store) {
    if (store == nullptr) return;
    const auto cache = engine.cache_stats();
    const auto stats = store->stats();
    // Stable key=value shape: the CI warm-start job greps ` misses=0 ` to
    // prove a warm run recomputed nothing that was already stored.
    std::printf(
        "result store: hits=%llu misses=%llu spills=%llu rejects=%llu "
        "(indexed=%zu segments=%zu scan-rejects=%llu)\n",
        static_cast<unsigned long long>(cache.store_hits),
        static_cast<unsigned long long>(cache.store_misses),
        static_cast<unsigned long long>(cache.spills),
        static_cast<unsigned long long>(cache.store_rejects),
        stats.indexed, stats.segments,
        static_cast<unsigned long long>(stats.scan_rejects));
}

void print_remote_fetch(const core::ScenarioEngine& engine,
                        bool fetch_peers_configured) {
    if (!fetch_peers_configured) return;
    const auto cache = engine.cache_stats();
    // Stable key=value shape: the CI loopback job greps ` misses=0` to
    // prove every local miss was served from the peer's warm cache
    // without a recompute.
    std::printf("remote fetch: hits=%llu misses=%llu\n",
                static_cast<unsigned long long>(cache.remote_hits),
                static_cast<unsigned long long>(cache.remote_misses));
}

/// Write one certificate's canonical text to <dir>/<label>.cert so two
/// runs (cold vs warm-started) can be byte-compared file by file.
void dump_certificate(const std::string& dir, const std::string& label,
                      const core::ToolchainReport& report) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const auto path = std::filesystem::path(dir) / (label + ".cert");
    std::ofstream out(path, std::ios::binary);
    out << report.certificate.to_text();
    if (!out)
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.string().c_str());
}

void print_admission(const core::AdmissionStats& stats) {
    const auto totals = stats.totals();
    // Stable key=value shape with ` rejected=` and ` shed=` adjacent: the
    // CI fabric job greps this line to prove overload handling engaged.
    std::printf(
        "admission: submitted=%llu admitted=%llu rejected=%llu shed=%llu "
        "completed=%llu cancelled=%llu failed=%llu queue-peak=%llu\n",
        static_cast<unsigned long long>(totals.submitted),
        static_cast<unsigned long long>(totals.admitted),
        static_cast<unsigned long long>(totals.rejected),
        static_cast<unsigned long long>(totals.shed),
        static_cast<unsigned long long>(totals.completed),
        static_cast<unsigned long long>(totals.cancelled),
        static_cast<unsigned long long>(totals.failed),
        static_cast<unsigned long long>(totals.queue_peak));
}

void print_trace_cache() {
    const auto stats = sim::TraceCache::process_wide()->stats();
    std::printf("trace cache: %llu hits / %llu misses, %llu evictions, "
                "%zu entries (%.0f%% hit ratio)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions),
                stats.entries, stats.hit_ratio() * 100.0);
}

/// Prints the report and returns whether its certificate is valid.
bool print_report(const core::ToolchainReport& report,
                  const platform::Platform& platform, bool quiet) {
    if (!quiet) {
        std::cout << report.summary() << "\n";
        std::cout << "--- schedule (Gantt) ---\n"
                  << report.schedule.gantt(platform) << "\n";
        std::cout << "--- refactoring advisor ---\n"
                  << core::render_advice(core::advise(report)) << "\n";
        std::cout << "--- generated glue ---\n"
                  << report.glue_code << "\n";
    }
    const bool ok = report.certificate.all_hold() &&
                    contracts::verify_certificate(report.certificate);
    std::printf("%s: certificate %s (%s)\n", report.spec.name.c_str(),
                ok ? "VALID" : "INVALID",
                report.certificate.fully_static()
                    ? "statically proven"
                    : "contains measured evidence");
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string which = argv[1];
    std::string platform_override;
    std::string csl_path;
    bool makespan = false;
    bool quiet = false;
    bool stream = false;
    constexpr auto kAnyCount = std::numeric_limits<std::uint64_t>::max();
    // Far above any host's core count; larger values could only fail
    // inside thread creation.
    constexpr std::uint64_t kMaxJobs = 1024;
    // One year: keeps now + deadline inside the steady clock's range.
    constexpr std::uint64_t kMaxDeadlineMs = 365ULL * 24 * 3600 * 1000;
    std::uint64_t seed = 42;
    std::uint64_t jobs = 0;
    std::uint64_t cache_budget = 0;
    std::string store_dir;
    std::string cert_dump_dir;
    std::vector<std::string> remote_endpoints;
    std::vector<std::string> fetch_peers;
    // The last flag seen that configures this process's engine; a usage
    // error beside --remote, which builds none.
    std::string local_flag;
    // The last flag seen that only a client run reads; a usage error
    // beside --serve, whose engine would ignore it.
    std::string client_flag;
    core::Priority priority = core::Priority::kBatch;
    std::uint64_t deadline_ms = 0;
    std::uint64_t queue_depth = 0;
    bool serve = false;
    std::uint64_t serve_port = 0;
    int opt_start = 2;
    if (which == "--serve") {
        if (argc < 3) {
            usage();
            return 2;
        }
        if (!parse_flag(which, argv[2], 65535, serve_port)) return 2;
        serve = true;
        opt_start = 3;
    }
    for (int i = opt_start; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg != "--jobs" && arg != "--cache-budget" &&
            arg != "--queue-depth" && arg != "--store-dir")
            client_flag = arg;
        if (arg == "--platform" && i + 1 < argc) {
            platform_override = argv[++i];
        } else if (arg == "--csl" && i + 1 < argc) {
            csl_path = argv[++i];
        } else if (arg == "--makespan") {
            makespan = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--stream") {
            stream = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parse_flag(arg, argv[++i], kAnyCount, seed)) return 2;
        } else if (arg == "--jobs" && i + 1 < argc) {
            if (!parse_flag(arg, argv[++i], kMaxJobs, jobs)) return 2;
            local_flag = arg;
        } else if (arg == "--remote" && i + 1 < argc) {
            remote_endpoints.emplace_back(argv[++i]);
        } else if (arg == "--fetch-peer" && i + 1 < argc) {
            fetch_peers.emplace_back(argv[++i]);
            local_flag = arg;
        } else if (arg == "--priority" && i + 1 < argc) {
            const auto parsed = core::parse_priority(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown priority class: %s\n",
                             argv[i]);
                return 2;
            }
            priority = *parsed;
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
            if (!parse_flag(arg, argv[++i], kMaxDeadlineMs, deadline_ms))
                return 2;
        } else if (arg == "--queue-depth" && i + 1 < argc) {
            if (!parse_flag(arg, argv[++i], kAnyCount, queue_depth))
                return 2;
            local_flag = arg;
        } else if (arg == "--cache-budget" && i + 1 < argc) {
            if (!parse_flag(arg, argv[++i], kAnyCount, cache_budget))
                return 2;
            local_flag = arg;
        } else if (arg == "--store-dir" && i + 1 < argc) {
            store_dir = argv[++i];
            local_flag = arg;
        } else if (arg == "--cert-dump" && i + 1 < argc) {
            cert_dump_dir = argv[++i];
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (serve && !client_flag.empty()) {
        std::fprintf(stderr, "%s cannot be combined with --serve\n",
                     client_flag.c_str());
        return 2;
    }
    if (!remote_endpoints.empty() && !local_flag.empty()) {
        std::fprintf(stderr, "%s cannot be combined with --remote\n",
                     local_flag.c_str());
        return 2;
    }

    try {
        // One engine configuration for both roles: the served engine, or
        // this process's local engine.
        std::shared_ptr<core::ResultStore> store;
        if (!store_dir.empty())
            store = std::make_shared<core::ResultStore>(store_dir);
        const core::ScenarioEngine::Options engine_options{
            .worker_threads = jobs,
            .cache_budget = {.max_entries = cache_budget},
            .result_store = store,
            .remote_fetch = fetch_peers.empty()
                                ? core::EvaluationCache::RemoteFetch{}
                                : net::fetch_from(fetch_peers),
            .admission = {.queue_depths = {queue_depth, queue_depth,
                                           queue_depth}}};

        if (serve) {
            // Block the termination signals *before* the server threads
            // exist so every thread inherits the mask and sigwait below is
            // the only consumer.
            sigset_t signals;
            sigemptyset(&signals);
            sigaddset(&signals, SIGINT);
            sigaddset(&signals, SIGTERM);
            pthread_sigmask(SIG_BLOCK, &signals, nullptr);

            net::ShardServer server(
                {.port = static_cast<std::uint16_t>(serve_port),
                 .engine = engine_options});
            std::printf("shard server: listening on port %u\n",
                        static_cast<unsigned>(server.port()));
            std::fflush(stdout);  // readiness line for scripted callers
            int signal_number = 0;
            sigwait(&signals, &signal_number);
            std::printf("shard server: shutting down (signal %d)\n",
                        signal_number);
            server.stop();
            return 0;
        }

        core::WorkflowOptions options;
        options.compiler.seed = seed;
        options.scheduler.seed = seed;
        options.compiler.population = 10;
        options.compiler.iterations = 10;
        options.profile_runs = 15;
        if (makespan)
            options.scheduler.objective =
                coordination::Scheduler::Objective::kMakespan;

        std::vector<usecases::UseCaseApp> apps;
        if (which == "pill") {
            apps.push_back(usecases::make_camera_pill_app());
        } else if (which == "space") {
            apps.push_back(usecases::make_space_app());
        } else if (which == "uav") {
            apps.push_back(usecases::make_uav_app(platform_override.empty()
                                                      ? "apalis-tk1"
                                                      : platform_override));
        } else if (which == "rover") {
            apps.push_back(usecases::make_rover_app(platform_override.empty()
                                                        ? "apalis-tk1"
                                                        : platform_override));
        } else if (which == "parking") {
            apps.push_back(
                usecases::make_parking_app(platform_override != "apalis-tk1"));
        } else if (which == "--all") {
            apps.push_back(usecases::make_camera_pill_app());
            apps.push_back(usecases::make_space_app());
            apps.push_back(usecases::make_uav_app("apalis-tk1"));
            apps.push_back(usecases::make_rover_app("apalis-tk1"));
            apps.push_back(usecases::make_parking_app(true));
        } else {
            usage();
            return 2;
        }

        if (!csl_path.empty() && which == "--all") {
            // One override file cannot annotate four different apps.
            std::fprintf(stderr, "--csl cannot be combined with --all\n");
            return 2;
        }
        if (!platform_override.empty() && which == "--all") {
            std::fprintf(stderr,
                         "--platform cannot be combined with --all\n");
            return 2;
        }
        std::string csl_override;
        if (!csl_path.empty()) {
            std::ifstream in(csl_path);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", csl_path.c_str());
                return 2;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            csl_override = buffer.str();
        }

        std::vector<core::ScenarioRequest> requests;
        requests.reserve(apps.size());
        for (const auto& app : apps) {
            core::ScenarioRequest request;
            request.program = &app.program;
            request.platform = &app.platform;
            request.csl_source =
                csl_override.empty() ? app.csl_source : csl_override;
            request.options = options;
            request.label = app.name;
            request.priority = priority;
            if (deadline_ms > 0)
                request.deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(deadline_ms);
            requests.push_back(std::move(request));
        }

        // One body for either front: this process's engine, or the router
        // over the remotes.
        const auto run_scenarios = [&](auto& front) -> int {
            // Only the local engine has a result store and fetch peers;
            // each remote keeps its own on its side of the wire.
            const auto print_local_tiers = [&] {
                if constexpr (std::is_same_v<decltype(front),
                                             core::ScenarioEngine&>) {
                    print_result_store(front, store);
                    print_remote_fetch(front, !fetch_peers.empty());
                }
            };

            if (stream) {
                // Service-core view: consume results in completion order
                // via the async submission path, then report batch
                // telemetry.
                std::mutex io_mutex;
                std::size_t completed = 0;
                bool all_ok = true;
                const auto start = std::chrono::steady_clock::now();
                std::vector<core::ScenarioTicket> tickets;
                tickets.reserve(requests.size());
                for (auto& request : requests) {
                    tickets.push_back(front.submit(
                        request, [&](const core::ScenarioOutcome& outcome) {
                            const std::lock_guard<std::mutex> lock(io_mutex);
                            ++completed;
                            if (outcome.report != nullptr) {
                                const auto& certificate =
                                    outcome.report->certificate;
                                const bool ok =
                                    certificate.all_hold() &&
                                    contracts::verify_certificate(
                                        certificate);
                                all_ok = ok && all_ok;
                                std::printf(
                                    "[%zu/%zu] %s: certificate %s (%s)\n",
                                    completed, requests.size(),
                                    outcome.label.c_str(),
                                    ok ? "VALID" : "INVALID",
                                    certificate.fully_static()
                                        ? "statically proven"
                                        : "contains measured evidence");
                            } else {
                                all_ok = false;
                                std::printf(
                                    "[%zu/%zu] %s: %s\n", completed,
                                    requests.size(), outcome.label.c_str(),
                                    outcome.shed        ? "shed"
                                    : outcome.cancelled ? "cancelled"
                                                        : "failed");
                            }
                        }));
                }
                for (auto& ticket : tickets) ticket.wait();
                const double wall_s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (!cert_dump_dir.empty()) {
                    for (std::size_t i = 0; i < tickets.size(); ++i) {
                        try {
                            dump_certificate(cert_dump_dir,
                                             requests[i].label,
                                             tickets[i].get());
                        } catch (...) {
                            // Failure already surfaced through the
                            // callback.
                        }
                    }
                }
                const auto summary = front.stats();
                std::printf(
                    "stream: %zu scenarios in %.3f s (%zu threads; cache: "
                    "%llu hits / %llu misses, %llu evictions, %zu "
                    "entries)\n",
                    requests.size(), wall_s, summary.workers,
                    static_cast<unsigned long long>(summary.cache.hits),
                    static_cast<unsigned long long>(summary.cache.misses),
                    static_cast<unsigned long long>(summary.cache.evictions),
                    summary.cache.entries);
                print_local_tiers();
                print_admission(summary.admission);
                print_trace_cache();
                if (!quiet)
                    std::printf("--- per-stage telemetry ---\n%s",
                                summary.stage_telemetry.to_string().c_str());
                return all_ok ? 0 : 1;
            }

            core::BatchStats stats;
            const auto reports = front.run_all(requests, &stats);

            bool all_ok = true;
            for (std::size_t i = 0; i < reports.size(); ++i)
                all_ok = print_report(reports[i], *requests[i].platform,
                                      quiet) &&
                         all_ok;
            if (!cert_dump_dir.empty())
                for (std::size_t i = 0; i < reports.size(); ++i)
                    dump_certificate(cert_dump_dir, requests[i].label,
                                     reports[i]);
            if (reports.size() > 1)
                std::printf("batch: %s\n", stats.to_string().c_str());
            print_local_tiers();
            print_admission(stats.admission);
            print_trace_cache();
            if (!quiet)
                std::printf("--- per-stage telemetry ---\n%s",
                            stats.stage_telemetry.to_string().c_str());
            return all_ok ? 0 : 1;
        };

        if (!remote_endpoints.empty()) {
            net::Router router(remote_endpoints);
            return run_scenarios(router);
        }
        core::ScenarioEngine engine(engine_options);
        return run_scenarios(engine);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
