#include "ir/lowering.hpp"

#include <map>
#include <set>

namespace teamplay::ir {

namespace {

/// Saturation ceiling for charge estimates: far above any executable run
/// (the machine's default instruction budget is 5e8) yet small enough that
/// products of nested bounds cannot overflow int64.
constexpr std::int64_t kEstimateCap = 1LL << 42;

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
    const std::int64_t sum = a + b;
    return sum > kEstimateCap ? kEstimateCap : sum;
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
    if (a <= 0 || b <= 0) return 0;
    if (a > kEstimateCap / b) return kEstimateCap;
    return a * b;
}

void collect(const Program& program, const Function& fn,
             std::set<std::string>& visited,
             std::vector<const Function*>& out, bool& complete) {
    visit(*fn.body, [&](const Node& node) {
        if (node.kind != NodeKind::kCall) return;
        if (!visited.insert(node.callee).second) return;
        const Function* callee = program.find(node.callee);
        if (callee == nullptr) {
            complete = false;
            return;
        }
        out.push_back(callee);
        collect(program, *callee, visited, out, complete);
    });
}

struct Estimator {
    const Program& program;
    std::map<std::string, std::int64_t> memo;

    std::int64_t function(const Function& fn, int depth) {
        const auto it = memo.find(fn.name);
        if (it != memo.end()) return it->second;
        // Depth guard for (invalid) cyclic call graphs; matches the
        // interpreter's own call-depth ceiling in spirit.
        if (depth > 64) return kEstimateCap;
        const std::int64_t estimate = node(*fn.body, depth);
        memo.emplace(fn.name, estimate);
        return estimate;
    }

    std::int64_t node(const Node& n, int depth) {
        switch (n.kind) {
            case NodeKind::kBlock:
                return static_cast<std::int64_t>(n.instrs.size());
            case NodeKind::kSeq: {
                std::int64_t total = 0;
                for (const auto& child : n.children)
                    total = sat_add(total, node(*child, depth));
                return total;
            }
            case NodeKind::kIf: {
                const std::int64_t then_cost = node(*n.then_branch, depth);
                const std::int64_t else_cost =
                    n.else_branch ? node(*n.else_branch, depth) : 0;
                return sat_add(1, std::max(then_cost, else_cost));
            }
            case NodeKind::kLoop: {
                std::int64_t trips =
                    n.trip_reg != kNoReg ? n.bound : n.trip;
                if (trips < 0) trips = 0;
                return sat_mul(trips, sat_add(1, node(*n.body, depth)));
            }
            case NodeKind::kCall: {
                const Function* callee = program.find(n.callee);
                if (callee == nullptr) return 1;
                return sat_add(1, function(*callee, depth + 1));
            }
        }
        return 0;
    }
};

}  // namespace

bool reachable_functions(const Program& program, const std::string& entry,
                         std::vector<const Function*>& out) {
    const Function* fn = program.find(entry);
    if (fn == nullptr) return false;
    out.push_back(fn);
    std::set<std::string> visited;
    visited.insert(entry);
    bool complete = true;
    collect(program, *fn, visited, out, complete);
    return complete;
}

Program reachable_subprogram(const Program& program,
                             const std::string& entry) {
    std::vector<const Function*> functions;
    // An undefined callee (or entry) stays undefined in the copy, which is
    // exactly how a walk from `entry` saw it in the original.
    (void)reachable_functions(program, entry, functions);
    Program sub;
    sub.memory_words = program.memory_words;
    for (const Function* fn : functions) sub.functions.emplace(fn->name, *fn);
    return sub;
}

std::int64_t estimate_charges(const Program& program, const Function& fn) {
    Estimator estimator{program, {}};
    return estimator.function(fn, 0);
}

}  // namespace teamplay::ir
