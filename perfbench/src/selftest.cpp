// Checks of the benchmark's own arithmetic and replay:
//   percentiles and quartiles (incl. refusing an unsupported p95),
//   span self time, and the fpa_optimise replay reproducing optimise.
// Prints one line per check; exit code 0 when all pass.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentiles() {
    using namespace perfbench;
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i) ten.push_back(i);
    check(percentile(ten, 0.5) == 5.0, "nearest-rank p50 of 1..10 is 5");
    check(percentile(ten, 0.95) == 10.0, "nearest-rank p95 of 1..10 is 10");
    check(percentile(ten, 1.0) == 10.0, "p100 is the maximum");
    check(percentile({7.0}, 0.5) == 7.0, "p50 of one sample");

    std::vector<double> many;
    for (int i = 200; i >= 1; --i) many.push_back(i);  // unsorted input
    const auto p95 = tail_percentile(many, 0.95);
    check(p95.has_value() && *p95 == 190.0,
          "p95 of 200 samples is rank 190 with 10 beyond");
    many.pop_back();
    check(!tail_percentile(many, 0.95).has_value(),
          "p95 of 199 samples is refused (9 beyond)");
    check(!tail_percentile({}, 0.5).has_value(), "empty sample refused");

    // Chunks of 200: p95s 190, 390, 638 (the 50-sample remainder joins the
    // last chunk, whose 250 samples put rank 238 at 638).
    std::vector<double> stream;
    for (int i = 1; i <= 650; ++i) stream.push_back(i);
    const auto chunked = chunked_percentile(stream, 0.95, 200);
    check(chunked.has_value() && *chunked == 390.0,
          "chunked p95 is the median of the chunk p95s (190/390/638)");
    check(!chunked_percentile(std::vector<double>(199, 1.0), 0.95, 200),
          "chunked p95 refused below one full chunk");
    check(chunked_percentile(stream, 0.5, 200).value_or(0) == 300.0,
          "chunked p50 is the median of the chunk p50s (100/300/525)");

    check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    check(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");

    // Reference values from Python: statistics.quantiles(data, n=4).
    const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
          "quartiles of 1..10 are 2.75/5.5/8.25");
    const auto q5 = quartiles({5, 1, 4, 2, 3});
    check(near(q5[0], 1.5) && near(q5[1], 3.0) && near(q5[2], 4.5),
          "quartiles of 1..5 are 1.5/3/4.5");
    const auto q2 = quartiles({1, 2});
    check(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25),
          "quartiles of two samples extrapolate like Python");
}

void self_time() {
    using namespace perfbench;
    // root [0,10] with children [1,3] and [2,6] (overlapping) and a
    // grandchild [4,5] inside the second child.
    std::vector<Span> spans = {
        {"root", 1, -1, 0.0, 10.0},
        {"a", 1, 0, 1.0, 3.0},
        {"b", 1, 0, 2.0, 6.0},
        {"c", 1, 2, 4.0, 5.0},
        {"other", 2, -1, 20.0, 21.5},
    };
    const auto self = self_times(spans);
    check(near(self[0], 5.0), "root self = 10 - union([1,3],[2,6]) = 5");
    check(near(self[1], 2.0), "leaf self = its duration");
    check(near(self[2], 3.0), "child self = 4 - grandchild 1 = 3");
    check(near(self[4], 1.5), "second root unaffected");
    const auto totals = totals_by_name(spans);
    check(totals.at("b").count == 1 && near(totals.at("b").total_s, 4.0),
          "totals by name");

    Tracer tracer;
    {
        const Tracer::Scope root(tracer, "request", 7);
        const Tracer::Scope child(tracer, "leaf", 7);
    }
    const auto& recorded = tracer.spans();
    check(recorded.size() == 2 && recorded[1].parent == 0 &&
              recorded[1].request == 7 &&
              recorded[0].end_s >= recorded[1].end_s,
          "tracer nests scopes and keeps the request id");
    check(tracer.root_time_s("request") >= 0.0 &&
              tracer.root_time_s("probe") == 0.0,
          "root time sums only the named roots");
}

void replay() {
    using namespace perfbench;
    namespace compiler = teamplay::compiler;
    const Catalog catalog({"pill", "space"});
    for (const char* key : {"pill", "space"}) {
        const auto& app = catalog.app(key);
        const auto& core = app.platform.cores.front();
        const compiler::MultiCriteriaCompiler mcc(app.program, core);
        auto options = Config{key, 11, 1, false}.options().compiler;
        options.population = 6;
        options.iterations = 4;
        const auto spec = teamplay::csl::parse(app.csl_source);
        const std::string entry = spec.tasks.front().entry;
        const auto expected = mcc.optimise(entry, options);
        const auto replayed = replay_optimise(
            mcc, options, [&](const compiler::PassConfig& config) {
                return mcc.compile(entry, config);
            });
        check(same_front(replayed.front, expected),
              std::string("fpa_optimise replay reproduces optimise (") +
                  key + ")");
        check(replayed.compile_calls >
                  static_cast<std::uint64_t>(options.population),
              "replay counts every compile call");
        auto perturbed = options;
        perturbed.seed += 1;
        const auto other = replay_optimise(
            mcc, perturbed, [&](const compiler::PassConfig& config) {
                return mcc.compile(entry, config);
            });
        check(!other.front.empty(), "replay with another seed runs");
    }
}

}  // namespace

int main() {
    percentiles();
    self_time();
    replay();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
