// Shard fabric transport (net/): loopback round-trips are byte-identical
// to in-process runs, transport faults (mid-frame disconnect, server
// restart, poisoned frames) surface as the retryable cancellation class
// and never poison the server, a spec defect fails only its own ticket,
// overflowing IR arithmetic gets a report rather than killing the server,
// cancels propagate across the wire, a warm
// fabric peer serves a cold engine's misses with zero recomputes, and
// resealed mutants of a kReplyStats envelope round-trip or raise WireError.
// A client's failure gauge counts transport failures in a row and resets
// on any answer.  The connection lifecycle: a down endpoint costs one
// refused connect per request, a client that reconnects across server
// restarts holds one connection, a server releases departed clients and
// outlives running out of descriptors, and every ticket completes while
// the server restarts under concurrent submits.  The router (net/router.hpp): one stats RPC per remote
// per snapshot, and fingerprint routing is stable, pinned and colocates
// scenarios that share their primary kernel.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scenario_engine.hpp"
#include "csl/csl.hpp"
#include "ir/builder.hpp"
#include "net/protocol.hpp"
#include "net/remote_shard.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

const usecases::UseCaseApp& pill_app() {
    static const usecases::UseCaseApp app =
        usecases::make_camera_pill_app();
    return app;
}

/// A light scenario (small search, few profile runs) so each wire round
/// trip stays in the tens of milliseconds.
core::ScenarioRequest light_request(const std::string& label = "pill#net") {
    const auto& app = pill_app();
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options.compiler.population = 4;
    request.options.compiler.iterations = 4;
    request.options.compiler.seed = 5;
    request.options.scheduler.seed = 5;
    request.options.scheduler.anneal_iterations = 50;
    request.options.profile_runs = 4;
    request.label = label;
    return request;
}

std::unique_ptr<net::ShardServer> make_server(std::uint16_t port = 0) {
    net::ShardServer::Options options;
    options.port = port;
    options.engine.worker_threads = 2;
    return std::make_unique<net::ShardServer>(std::move(options));
}

net::RemoteShard::Options client_options(std::uint16_t port) {
    net::RemoteShard::Options options;
    options.host = "127.0.0.1";
    options.port = port;
    return options;
}

TEST(Net, EnvelopeRoundTripAndRejects) {
    net::Envelope envelope;
    envelope.id = 0x1122334455667788ULL;
    envelope.type = net::MsgType::kReplyReport;
    envelope.payload = {1, 2, 3, 4, 5};
    const auto bytes = net::encode_envelope(envelope);
    const auto decoded = net::decode_envelope(bytes);
    EXPECT_EQ(decoded.id, envelope.id);
    EXPECT_EQ(decoded.type, envelope.type);
    EXPECT_EQ(decoded.payload, envelope.payload);

    EXPECT_THROW((void)net::decode_envelope(
                     std::span<const std::uint8_t>(bytes.data(), 8)),
                 core::wire::WireFormatError);
    auto bad_type = bytes;
    bad_type[8] = 0xEE;
    EXPECT_THROW((void)net::decode_envelope(bad_type),
                 core::wire::WireFormatError);
}

/// Recompute the FNV-1a 64 trailer of an envelope's wire payload, so a
/// mutated envelope reaches the structural decoder instead of failing the
/// checksum.
void reseal_payload(core::wire::Buffer& envelope_bytes) {
    std::uint64_t checksum = 14695981039346656037ULL;
    const std::size_t trailer = envelope_bytes.size() - 8;
    for (std::size_t i = 9; i < trailer; ++i) {
        checksum ^= envelope_bytes[i];
        checksum *= 1099511628211ULL;
    }
    for (std::size_t i = 0; i < 8; ++i)
        envelope_bytes[trailer + i] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
}

// Every byte of a kReplyStats envelope, flipped with masks 0x01 and 0x80
// and resealed: an accepted envelope re-encodes to the mutant, and a
// kReplyStats payload either decodes and re-encodes to itself or raises a
// WireError.
TEST(Net, ResealedStatsEnvelopeMutantsRoundTripOrRaiseWireError) {
    core::ScenarioEngine engine;
    const std::vector<core::ScenarioRequest> requests{light_request()};
    core::BatchStats stats;
    (void)engine.run_all(requests, &stats);
    stats.admission.remote_failures = {0, 3};
    const auto pristine = net::encode_envelope(
        {0x0102030405060708ULL, net::MsgType::kReplyStats,
         core::wire::encode(stats)});

    std::size_t stats_accepted = 0;
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        for (const std::uint8_t mask : {0x01, 0x80}) {
            auto mutant = pristine;
            mutant[i] ^= mask;
            reseal_payload(mutant);
            net::Envelope envelope;
            try {
                envelope = net::decode_envelope(mutant);
            } catch (const core::wire::WireError&) {
                continue;
            }
            EXPECT_TRUE(net::encode_envelope(envelope) == mutant)
                << "byte " << i << ", mask " << int{mask};
            if (envelope.type != net::MsgType::kReplyStats) continue;
            try {
                EXPECT_TRUE(core::wire::encode(core::wire::decode_batch_stats(
                                envelope.payload)) == envelope.payload)
                    << "accepted payload (byte " << i << ", mask "
                    << int{mask} << ") does not re-encode to itself";
                ++stats_accepted;
            } catch (const core::wire::WireError&) {
            }
        }
    }
    EXPECT_GT(stats_accepted, 0U);
}

TEST(Net, LoopbackReportIsByteIdenticalToInProcess) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));

    auto report = remote.submit(light_request()).get();

    core::ScenarioEngine local;
    auto expected = local.submit(light_request()).get();

    EXPECT_EQ(report.certificate.to_text(),
              expected.certificate.to_text());
    EXPECT_EQ(report.glue_code, expected.glue_code);
    EXPECT_EQ(report.schedule.makespan_s, expected.schedule.makespan_s);

    // The remote report additionally carries the three per-hop transport
    // laps.  Lap *durations* are wall-clock and differ run to run, so the
    // byte-identity check compares the reports with laps cleared.
    ASSERT_GE(report.stage_laps.size(), 3U);
    EXPECT_EQ(report.stage_laps[report.stage_laps.size() - 3].stage,
              "net/encode");
    EXPECT_EQ(report.stage_laps[report.stage_laps.size() - 2].stage,
              "net/rtt");
    EXPECT_EQ(report.stage_laps[report.stage_laps.size() - 1].stage,
              "net/decode");
    report.stage_laps.clear();
    expected.stage_laps.clear();
    EXPECT_EQ(core::wire::encode(report), core::wire::encode(expected));

    const auto telemetry = remote.transport_telemetry();
    EXPECT_EQ(telemetry.stages().at("net/rtt").count, 1U);
}

TEST(Net, CompletionCallbackFiresOnReaderThread) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));
    std::promise<std::string> label;
    auto future = label.get_future();
    auto ticket = remote.submit(
        light_request("pill#callback"),
        [&label](const core::ScenarioOutcome& outcome) {
            label.set_value(outcome.label);
        });
    EXPECT_EQ(future.get(), "pill#callback");
    ticket.wait();
}

TEST(Net, ServerGoneMidScenarioFailsTicketRetryably) {
    auto server = make_server();
    const auto port = server->port();
    net::RemoteShard remote(client_options(port));

    // Tear the server down while the scenario is in flight: its reply
    // socket is shut before the engine drains, so the client sees the
    // connection die mid-exchange.
    auto ticket = remote.submit(light_request());
    server.reset();

    bool retryable = false;
    std::string message;
    try {
        (void)ticket.get();
        // Timing may let the reply win the race with the shutdown; that
        // is not a failure of the fault path, just a fast server.
        retryable = true;
    } catch (const core::CancelledError& e) {
        retryable = true;  // the documented retryable class
        message = e.what();
    } catch (const std::exception& e) {
        message = e.what();
    }
    EXPECT_TRUE(retryable) << message;

    // Retry after restart on the same port: the client connects afresh and
    // the replayed scenario is byte-identical to an in-process run.
    server = make_server(port);
    const auto report = remote.submit(light_request()).get();
    core::ScenarioEngine local;
    EXPECT_EQ(report.certificate.to_text(),
              local.submit(light_request()).get().certificate.to_text());
}

TEST(Net, ServerRestartBetweenRequestsReconnects) {
    auto server = make_server();
    const auto port = server->port();
    net::RemoteShard remote(client_options(port));
    const auto first = remote.submit(light_request()).get();

    server.reset();
    server = make_server(port);

    // The old connection's peer hung up; the next submit retires it,
    // connects afresh and must produce the same certificate.
    const auto second = remote.submit(light_request()).get();
    EXPECT_EQ(second.certificate.to_text(), first.certificate.to_text());
}

TEST(Net, UnreachableEndpointFailsTicketAfterBackoff) {
    net::RemoteShard::Options options;
    options.host = "127.0.0.1";
    options.port = 1;  // reserved port: nothing listens there
    net::RemoteShard remote(options);
    auto ticket = remote.submit(light_request());
    try {
        (void)ticket.get();
        FAIL() << "an unreachable remote must fail the ticket";
    } catch (const core::CancelledError& e) {
        // The endpoint is named once, before the transport's own text.
        EXPECT_STREQ(e.what(),
                     "remote shard unavailable: 127.0.0.1:1: cannot "
                     "connect to 127.0.0.1:1");
    }
    EXPECT_FALSE(remote.fetch(core::EvaluationKey{}).has_value());
    EXPECT_FALSE(remote.stats().has_value());
}

TEST(Net, MidFrameDisconnectDoesNotPoisonServer) {
    const auto server = make_server();
    {
        // A peer that promises a 100-byte frame, sends 10, and vanishes.
        auto torn = net::Socket::connect_to("127.0.0.1", server->port());
        const std::uint8_t prefix[4] = {100, 0, 0, 0};
        torn.send_all(prefix, 4);
        const std::uint8_t partial[10] = {};
        torn.send_all(partial, 10);
    }
    // The server dropped that connection and keeps serving new ones.
    net::RemoteShard remote(client_options(server->port()));
    EXPECT_TRUE(remote.stats().has_value());
}

TEST(Net, PoisonedPayloadGetsErrorReplyAndConnectionSurvives) {
    const auto server = make_server();
    auto socket = net::Socket::connect_to("127.0.0.1", server->port());

    // A structurally valid envelope whose payload fails strict wire
    // decoding: answered with kReplyError, connection stays up.
    net::Envelope poisoned;
    poisoned.id = 7;
    poisoned.type = net::MsgType::kSubmit;
    poisoned.payload = {0xDE, 0xAD, 0xBE, 0xEF};
    net::send_frame(socket, net::encode_envelope(poisoned));
    auto reply_frame = net::recv_frame(socket);
    ASSERT_TRUE(reply_frame.has_value());
    auto reply = net::decode_envelope(*reply_frame);
    EXPECT_EQ(reply.id, 7U);
    EXPECT_EQ(reply.type, net::MsgType::kReplyError);

    // Same socket, valid request: still served.
    net::Envelope stats;
    stats.id = 8;
    stats.type = net::MsgType::kStats;
    net::send_frame(socket, net::encode_envelope(stats));
    reply_frame = net::recv_frame(socket);
    ASSERT_TRUE(reply_frame.has_value());
    reply = net::decode_envelope(*reply_frame);
    EXPECT_EQ(reply.id, 8U);
    EXPECT_EQ(reply.type, net::MsgType::kReplyStats);
    EXPECT_NO_THROW((void)core::wire::decode_batch_stats(reply.payload));
}

TEST(Net, AppWithoutTasksFailsItsTicketAndTheServerKeepsServing) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));

    // The server's parse rejects an app that declares no tasks: an error
    // reply for this ticket, not a dead server.
    auto empty = light_request("empty#net");
    empty.csl_source = "app empty on camera-pill deadline 100ms {\n}\n";
    try {
        (void)remote.submit(empty).get();
        ADD_FAILURE() << "an app without tasks was certified";
    } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what()),
                  "remote shard error: app 'empty' declares no tasks");
    }

    // Same client: a valid request still completes.
    const auto report = remote.submit(light_request()).get();
    EXPECT_TRUE(report.certificate.all_hold());
}

TEST(Net, OverflowingDivisionGetsAReportAndTheServerKeepsServing) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));

    // INT64_MIN / -1 traps on x86-64; the IR defines it to wrap.  The
    // camera pill folds it in the compiler search, apalis-tk1 runs it in
    // the profiler's simulator.
    ir::Program program;
    program.memory_words = 16;
    ir::FunctionBuilder b("overflow", 0);
    b.ret(b.div(b.imm(std::numeric_limits<ir::Word>::min()), b.imm(-1)));
    program.add(b.build());
    const auto pill = platform::camera_pill_board();
    const auto tk1 = platform::apalis_tk1();
    for (const auto& [platform, core_class] :
         {std::pair{&pill, "mcu"}, std::pair{&tk1, "big"}}) {
        auto request = light_request("overflow@" + platform->name);
        request.program = &program;
        request.platform = platform;
        request.csl_source = "app overflow on " + platform->name +
                             " deadline 100ms {\n"
                             "  task t { entry overflow; period 100ms;"
                             " deadline 100ms; core_class " +
                             core_class + "; }\n}\n";
        const auto report = remote.submit(request).get();
        EXPECT_EQ(report.certificate.app, "overflow") << platform->name;
    }

    // Same client: a pill request still completes.
    const auto report = remote.submit(light_request()).get();
    EXPECT_TRUE(report.certificate.all_hold());
}

TEST(Net, CancelPropagatesAcrossTheWire) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));

    // Saturate both server workers so the victim stays queued long enough
    // for the cancel frame to arrive before it starts.
    auto busy_a = remote.submit(light_request("pill#busy_a"));
    auto busy_b = remote.submit(light_request("pill#busy_b"));
    auto victim_request = light_request("pill#victim");
    victim_request.options.compiler.seed = 99;  // distinct cache keys
    victim_request.options.scheduler.seed = 99;
    auto victim = remote.submit(victim_request);
    victim.cancel();

    bool cancelled = false;
    try {
        (void)victim.get();
    } catch (const core::CancelledError&) {
        cancelled = true;
    }
    // The cancel can lose the race if a worker freed up first; the
    // invariant is that it never errors any other way and the rest of the
    // batch is untouched.
    EXPECT_NO_THROW((void)busy_a.get());
    EXPECT_NO_THROW((void)busy_b.get());
    if (!cancelled) GTEST_SKIP() << "victim completed before the cancel";
}

TEST(Net, WarmPeerServesMissesWithZeroRecomputes) {
    const auto server = make_server();
    net::RemoteShard peer(client_options(server->port()));
    (void)peer.submit(light_request()).get();  // warm the peer's cache

    core::ScenarioEngine local;
    local.set_remote_fetch(
        net::fetch_from({"127.0.0.1:" + std::to_string(server->port())}));
    const auto report = local.submit(light_request()).get();

    const auto stats = local.cache_stats();
    EXPECT_GT(stats.remote_hits, 0U);
    EXPECT_EQ(stats.remote_misses, 0U);

    core::ScenarioEngine reference;
    EXPECT_EQ(
        report.certificate.to_text(),
        reference.submit(light_request()).get().certificate.to_text());
}

TEST(Net, ShardedEngineRoutesOverTheFabric) {
    const auto server_a = make_server();
    const auto server_b = make_server();
    net::Router router({
        "127.0.0.1:" + std::to_string(server_a->port()),
        "127.0.0.1:" + std::to_string(server_b->port()),
    });
    EXPECT_EQ(router.shard_count(), 2U);

    const auto report = router.run(light_request());
    core::ScenarioEngine reference;
    EXPECT_EQ(
        report.certificate.to_text(),
        reference.submit(light_request()).get().certificate.to_text());
}

TEST(Net, ServerSideShedRepliesRetryableShedError) {
    const auto server = make_server();
    net::RemoteShard remote(client_options(server->port()));

    // The deadline travels as remaining budget and is already negative at
    // encode time, so the server's admission check refuses it the moment
    // it lands — a deterministic server-side shed, no timing races.
    auto doomed = light_request("pill#doomed");
    doomed.deadline = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(10);
    std::promise<bool> shed_flag;
    auto shed_future = shed_flag.get_future();
    auto ticket = remote.submit(
        doomed, [&shed_flag](const core::ScenarioOutcome& outcome) {
            shed_flag.set_value(outcome.shed);
        });
    try {
        (void)ticket.get();
        FAIL() << "server-side shed must surface as ShedError";
    } catch (const core::ShedError& e) {
        EXPECT_EQ(e.reason(), core::ShedError::Reason::kRemote);
    }
    EXPECT_TRUE(shed_future.get());

    // Retryable by the generic idiom: the identical request without the
    // deadline completes and matches an in-process run byte for byte.
    const auto report = remote.submit(light_request("pill#doomed")).get();
    core::ScenarioEngine reference;
    EXPECT_EQ(
        report.certificate.to_text(),
        reference.submit(light_request()).get().certificate.to_text());

    // The refusal is visible in the server's stats RPC: AdmissionStats
    // crossed the wire inside BatchStats.
    const auto stats = remote.stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->admission.totals().rejected, 1U);
    EXPECT_GE(stats->admission.totals().submitted, 2U);
    EXPECT_GE(stats->admission.totals().completed, 1U);
}

TEST(Net, HealthyProbeDistinguishesLiveFromUnreachable) {
    const auto server = make_server();
    net::RemoteShard live(client_options(server->port()));
    EXPECT_TRUE(live.healthy());
    EXPECT_TRUE(live.healthy());  // idempotent on the kept connection

    net::RemoteShard::Options options;
    options.host = "127.0.0.1";
    options.port = 1;  // reserved port: nothing listens there
    net::RemoteShard dead(options);
    // One connect attempt, the same as every request makes.
    EXPECT_FALSE(dead.healthy());
}

TEST(Net, ConsecutiveRemoteFailureGaugeCountsTransportLoss) {
    net::Router router({"127.0.0.1:1"});  // nothing listens there

    auto first = router.submit(light_request("pill#gauge_a"));
    EXPECT_THROW((void)first.get(), core::CancelledError);
    auto second = router.submit(light_request("pill#gauge_b"));
    EXPECT_THROW((void)second.get(), core::CancelledError);

    const auto admission = router.stats().admission;
    ASSERT_GE(admission.remote_failures.size(), 1U);
    EXPECT_GE(admission.remote_failures[0], 2U);  // consecutive, summed up
}

TEST(Net, FailureGaugeCountsTransportFailuresAndResetsOnAnswer) {
    // A port where nothing listens now and a server can bind later.
    std::uint16_t port = 0;
    {
        const net::Listener probe(0);
        port = probe.port();
    }
    net::RemoteShard remote(client_options(port));
    for (const char* label : {"pill#down_a", "pill#down_b"})
        EXPECT_THROW((void)remote.submit(light_request(label)).get(),
                     net::RemoteShardError);
    EXPECT_EQ(remote.consecutive_failures(), 2U);

    // Refused before sending: says nothing about the remote.
    auto no_program = light_request("pill#no_program");
    no_program.program = nullptr;
    EXPECT_THROW((void)remote.submit(no_program).get(),
                 std::invalid_argument);
    EXPECT_EQ(remote.consecutive_failures(), 2U);

    const auto server = make_server(port);
    (void)remote.submit(light_request("pill#up")).get();
    EXPECT_EQ(remote.consecutive_failures(), 0U);
}

// -- connection lifecycle -----------------------------------------------------

/// Descriptors this process holds open.
std::size_t open_fds() {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++count;
    return count;
}

TEST(Net, DownEndpointCostsNoBackoff) {
    net::RemoteShard remote(client_options(1));  // nothing listens there
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < 10; ++round) {
        EXPECT_THROW((void)remote.submit(light_request()).get(),
                     net::RemoteShardError);
        EXPECT_FALSE(remote.fetch(core::EvaluationKey{}).has_value());
        EXPECT_FALSE(remote.stats().has_value());
    }
    // One refused connect each: a few milliseconds for all 30 requests.
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              0.5);
}

TEST(Net, ReconnectingClientHoldsOneConnection) {
    auto server = make_server();
    const auto port = server->port();
    net::RemoteShard remote(client_options(port));
    ASSERT_TRUE(remote.stats().has_value());
    const auto after_first = open_fds();
    for (int restart = 0; restart < 20; ++restart) {
        server.reset();
        server = make_server(port);
        ASSERT_TRUE(remote.stats().has_value()) << "restart " << restart;
    }
    // The live connection, and at most one retired connection whose
    // reader had not yet ended when the last one opened.
    EXPECT_LE(open_fds(), after_first + 1);
}

TEST(Net, ServerReleasesDepartedClients) {
    const auto server = make_server();
    const auto before = open_fds();
    for (int client = 0; client < 20; ++client) {
        net::RemoteShard departing(client_options(server->port()));
        ASSERT_TRUE(departing.stats().has_value()) << "client " << client;
    }
    net::RemoteShard last(client_options(server->port()));
    ASSERT_TRUE(last.stats().has_value());
    // Both ends of the last client's connection, and the server's end of
    // the one before it if that reader had not yet ended at the accept.
    EXPECT_LE(open_fds(), before + 3);
}

/// This process's soft limit on open descriptors, lowered for one scope.
class DescriptorLimit {
public:
    explicit DescriptorLimit(rlim_t soft) {
        EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
        rlimit lowered = saved_;
        lowered.rlim_cur = soft;
        EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    }
    ~DescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
    DescriptorLimit(const DescriptorLimit&) = delete;
    DescriptorLimit& operator=(const DescriptorLimit&) = delete;

private:
    rlimit saved_{};
};

/// A loopback connection made without name resolution, which may open
/// descriptors of its own; -1 when none is left.
int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(Net, AcceptOutlivesRunningOutOfDescriptors) {
    const auto server = make_server();
    {
        // Both ends of every connection live in this process, so the
        // server's accept runs out of descriptors along with the client.
        // Eight spare descriptors keep the raw connections below the
        // listener's backlog, so no connect can block.
        const DescriptorLimit limit(open_fds() + 8);
        std::vector<net::Socket> raw;
        for (int fd; (fd = raw_connect(server->port())) >= 0;)
            raw.emplace_back(fd);
        ASSERT_FALSE(raw.empty());
        // An accept parked in the kernel may hold the last free descriptor;
        // one more connection makes it take that one and ask for another.
        raw.pop_back();
        if (const int fd = raw_connect(server->port()); fd >= 0)
            raw.emplace_back(fd);
        // Hold the shortage until the accept thread has run into it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }  // closes the raw connections and restores the limit

    const int fd = raw_connect(server->port());
    ASSERT_GE(fd, 0);
    net::Socket probe(fd);
    const timeval timeout{2, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    net::send_frame(probe,
                    net::encode_envelope({1, net::MsgType::kStats, {}}));
    std::optional<std::vector<std::uint8_t>> reply;
    try {
        reply = net::recv_frame(probe);
    } catch (const net::TransportError& e) {
        FAIL() << "no stats reply within 2 s: " << e.what();
    }
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(net::decode_envelope(*reply).type, net::MsgType::kReplyStats);
}

// Four threads submit while the server restarts ten times on one port.
// Whatever connection a request meets — live, hung up, retired or not yet
// opened — its ticket completes with a report or the retryable class.
TEST(Net, RestartsUnderConcurrentSubmitsCompleteEveryTicket) {
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::vector<std::string> unexpected;
    const auto on_complete = [&](const core::ScenarioOutcome& outcome) {
        std::string failure;
        if (outcome.report == nullptr) {
            try {
                std::rethrow_exception(outcome.error);
            } catch (const core::CancelledError&) {
            } catch (const std::exception& e) {
                failure = e.what();
            }
        }
        const std::lock_guard<std::mutex> lock(mutex);
        ++completed;
        if (!failure.empty()) unexpected.push_back(failure);
        all_done.notify_all();
    };

    auto server = make_server();
    const auto port = server->port();
    net::RemoteShard remote(client_options(port));
    std::atomic<bool> restarting{true};
    std::vector<std::thread> submitters;
    for (int thread = 0; thread < 4; ++thread)
        submitters.emplace_back([&] {
            while (restarting.load()) {
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    ++submitted;
                }
                (void)remote.submit(light_request(), on_complete);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    for (int restart = 0; restart < 10; ++restart) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        server.reset();
        server = make_server(port);
    }
    restarting.store(false);
    for (auto& submitter : submitters) submitter.join();

    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(all_done.wait_for(lock, std::chrono::seconds(10), [&] {
        return completed == submitted;
    })) << completed << " of " << submitted << " tickets completed";
    EXPECT_TRUE(unexpected.empty()) << unexpected.front();
}

/// A stand-in shard server: answers each kStats envelope with a snapshot
/// that advertises `workers`, and counts the envelopes.
class StatsStub {
public:
    explicit StatsStub(std::size_t workers)
        : workers_(workers), listener_(0), thread_([this] { serve(); }) {}
    StatsStub(const StatsStub&) = delete;
    StatsStub& operator=(const StatsStub&) = delete;
    ~StatsStub() {
        listener_.stop();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (connection_ != nullptr) connection_->shutdown_both();
        }
        thread_.join();
    }

    [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
    [[nodiscard]] std::size_t stats_requests() const { return requests_; }

private:
    void serve() {
        // One connection at a time: a RemoteShard keeps one open.
        while (auto socket = listener_.accept_one()) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                connection_ = &*socket;
            }
            try {
                while (const auto frame = net::recv_frame(*socket)) {
                    const auto request = net::decode_envelope(*frame);
                    if (request.type != net::MsgType::kStats) continue;
                    ++requests_;
                    core::BatchStats stats;
                    stats.workers = workers_;
                    net::send_frame(
                        *socket,
                        net::encode_envelope({request.id,
                                              net::MsgType::kReplyStats,
                                              core::wire::encode(stats)}));
                }
            } catch (const net::TransportError&) {
            }
            const std::lock_guard<std::mutex> lock(mutex_);
            connection_ = nullptr;
        }
    }

    std::size_t workers_;
    std::atomic<std::size_t> requests_{0};
    std::mutex mutex_;
    net::Socket* connection_ = nullptr;
    net::Listener listener_;
    std::thread thread_;
};

TEST(Net, RouterStatsSendsOneStatsRpcPerRemoteAndFoldsThem) {
    StatsStub stub_a(3);
    StatsStub stub_b(5);
    const net::Router router({"127.0.0.1:" + std::to_string(stub_a.port()),
                              "127.0.0.1:" + std::to_string(stub_b.port())});
    const auto stats = router.stats();
    EXPECT_EQ(stub_a.stats_requests(), 1U);
    EXPECT_EQ(stub_b.stats_requests(), 1U);
    EXPECT_EQ(stats.workers, 8U);
    EXPECT_EQ(stats.admission.remote_failures,
              (std::vector<std::uint64_t>{0, 0}));
}

TEST(Net, MalformedEndpointsAreRejected) {
    for (const std::string endpoint :
         {"nocolon", ":7791", "host:", "host:0", "host:99999",
          "host:7x91", "host:+80", "host: 80"}) {
        EXPECT_THROW(net::Router{{endpoint}}, std::invalid_argument)
            << endpoint;
        EXPECT_THROW((void)net::fetch_from({endpoint}), std::invalid_argument)
            << endpoint;
    }
    // No remotes, no routing domain.
    EXPECT_THROW(net::Router{{}}, std::invalid_argument);
}

// -- routing ------------------------------------------------------------------

/// A routing domain of four remotes.  Nothing listens on these reserved
/// ports, but connections are lazy, so routing needs no server.
net::Router four_remotes() {
    return net::Router(
        {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"});
}

core::ScenarioRequest routed_request(const usecases::UseCaseApp& app,
                                     const std::string& label = {}) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.label = label.empty() ? app.name : label;
    return request;
}

TEST(ShardRouter, StableAndSpecRepresentationIndependent) {
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const auto router = four_remotes();
    ASSERT_EQ(router.shard_count(), 4U);

    const auto from_source = routed_request(uav);
    auto pre_parsed = routed_request(uav);
    pre_parsed.spec = csl::parse(uav.csl_source);

    const auto shard = router.shard_of(from_source);
    EXPECT_EQ(shard, router.shard_of(from_source));  // deterministic
    EXPECT_EQ(shard, router.shard_of(pre_parsed));   // representation-free
    EXPECT_LT(shard, router.shard_count());
}

TEST(ShardRouter, SameKernelScenariosColocate) {
    // Option/label/scheduler variations of the same application analyse
    // the same kernels, so they must land where the cache is warm.
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const auto router = four_remotes();
    auto variant = routed_request(uav, "variant");
    variant.options.scheduler.seed = 99;
    variant.options.profile_runs = 7;
    EXPECT_EQ(router.shard_of(routed_request(uav)), router.shard_of(variant));
}

TEST(ShardRouter, UavAndRoverColocate) {
    // The UAV and the rover share their primary kernel (uav_capture), so
    // the router sends both to the remote whose cache holds it.
    const auto uav = usecases::make_uav_app("apalis-tk1");
    const auto rover = usecases::make_rover_app("apalis-tk1");
    const auto router = four_remotes();
    EXPECT_EQ(router.shard_of(routed_request(uav)),
              router.shard_of(routed_request(rover)));
}

// Every use-case app over four remotes, by its primary kernel and, with a
// malformed CSL source, by whole-program content.  Routing is a pure
// function of the request, so these never move across releases: a moved
// value means scenarios stop landing on the caches they warmed.
TEST(ShardRouter, RoutesArePinned) {
    struct Expected {
        usecases::UseCaseApp app;
        std::size_t by_kernel;
        std::size_t by_program;
    };
    const Expected table[] = {
        {usecases::make_camera_pill_app(), 3, 0},
        {usecases::make_space_app(), 1, 3},
        {usecases::make_uav_app("apalis-tk1"), 1, 3},
        {usecases::make_uav_app("jetson-tx2"), 1, 3},
        {usecases::make_uav_app("jetson-nano"), 1, 3},
        {usecases::make_rover_app("apalis-tk1"), 1, 2},
        {usecases::make_rover_app("jetson-tx2"), 1, 2},
        {usecases::make_rover_app("jetson-nano"), 1, 2},
        {usecases::make_parking_app(true), 3, 1},
        {usecases::make_parking_app(false), 3, 1},
    };
    const auto router = four_remotes();
    for (const auto& [app, by_kernel, by_program] : table) {
        auto request = routed_request(app);
        EXPECT_EQ(router.shard_of(request), by_kernel)
            << app.name << " on " << app.platform.name;
        request.csl_source = "app broken on nothing {";
        EXPECT_EQ(router.shard_of(request), by_program)
            << app.name << " on " << app.platform.name;
    }
}

TEST(ShardRouter, RequestWithoutProgramFailsItsTicket) {
    // The ticket fails the way a local engine's does, before the router
    // connects to anything.
    const auto& pill = pill_app();
    core::ScenarioRequest no_program;
    no_program.platform = &pill.platform;
    no_program.csl_source = pill.csl_source;
    auto router = four_remotes();
    auto ticket = router.submit(no_program);
    EXPECT_THROW((void)ticket.get(), std::invalid_argument);
}

}  // namespace
