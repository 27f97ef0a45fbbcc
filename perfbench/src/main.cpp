// Workload driver: runs one workload and prints one JSON result line.
//
//   perfbench --workload <cold_sweep|service_mix|remote_warm> --seed <n>
//             --seconds <s> --trace <0|1> --golden <file> --work-dir <dir>
//   perfbench --write-golden <workload> <file>
//   perfbench --list-metrics
//
// Exit code 0 when every output matched its golden digest, 1 when any
// failed (the result line is still printed), 2 on a usage or setup error
// (nothing printed on stdout).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "catalog.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    try {
        if (argc == 4 && std::strcmp(argv[1], "--write-golden") == 0) {
            perfbench::write_golden(argv[2], argv[3]);
            return 0;
        }
        if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
            for (const auto& metric : perfbench::end_to_end_metrics())
                std::printf("end_to_end %s %s\n", metric.name.c_str(),
                            metric.unit.c_str());
            for (const auto& metric : perfbench::per_layer_metrics())
                std::printf("per_layer %s %s\n", metric.name.c_str(),
                            metric.unit.c_str());
            return 0;
        }
        perfbench::RunArgs args;
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.trace = value == "1";
            else if (flag == "--golden") args.golden_path = value;
            else if (flag == "--work-dir") args.work_dir = value;
            else throw std::invalid_argument("unknown flag " + flag);
        }
        if (args.workload.empty() || args.golden_path.empty() ||
            args.work_dir.empty() || argc % 2 == 0)
            throw std::invalid_argument("missing or odd arguments");
        const auto result = perfbench::run_workload(args);
        std::printf("%s\n", perfbench::to_json(result).c_str());
        return result.correct ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
