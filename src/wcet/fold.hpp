// One fold over the structured IR for every static cost bound.
//
// The WCET analyser, the energy analyser and the contract system's time and
// energy proofs compose a bound from the same five rules:
//   * a block sums its instructions' prices, left to right from 0;
//   * a seq sums its children, from 0;
//   * an if is the branch price plus the worse arm (a missing else is 0);
//   * a loop is its static bound x (the iteration price + the body);
//   * a call is the call price plus the callee's bound.
// `fold` states them once.  What is priced is data (`Prices`: cycles, or
// worst-case dynamic pJ); what is built is a rule set (`BoundRules` yields a
// plain double, the certificate's rules a proof tree).  Every rule set
// performs the same floating-point operations in the same order, so an
// analyser's bound and the proof root that certifies it agree bit for bit.
// Recursion is rejected by IR validation; an undefined callee throws.
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "ir/program.hpp"
#include "isa/target_model.hpp"

namespace teamplay::wcet {

/// Price of each cost event the rules compose.
struct Prices {
    std::array<double, isa::kNumInstrClasses> instr{};  ///< per instruction
    double branch = 0.0;     ///< per if
    double loop_iter = 0.0;  ///< per loop iteration
    double call = 0.0;       ///< per call
};

/// Cycle prices: the core's latency table and structural overheads, the
/// same costs the simulator charges on a predictable core.
[[nodiscard]] inline Prices cycle_prices(const isa::TargetModel& model) {
    Prices prices;
    for (std::size_t cls = 0; cls < prices.instr.size(); ++cls)
        prices.instr[cls] = model.cost[cls].cycles;
    prices.branch = model.branch_cycles;
    prices.loop_iter = model.loop_iter_cycles;
    prices.call = model.call_cycles;
    return prices;
}

/// Fold `node` into a `Rules::Value`.  A rule set provides:
///   Value block(block, cost)          cost = the block's summed prices
///   Value seq(seq) / append(sum, child)
///   Value empty_else()
///   Value branch(price, then, else)
///   Value loop(loop, price, body)
///   Value call(call, price, callee, expand)   expand() folds the callee
template <class Rules>
typename Rules::Value fold(const ir::Program& program, const ir::Node& node,
                           const Prices& prices, Rules& rules) {
    switch (node.kind) {
        case ir::NodeKind::kBlock: {
            double cost = 0.0;
            for (const auto& instr : node.instrs)
                cost += prices.instr[static_cast<std::size_t>(
                    isa::instr_class(instr.op))];
            return rules.block(node, cost);
        }
        case ir::NodeKind::kSeq: {
            auto sum = rules.seq(node);
            for (const auto& child : node.children)
                rules.append(sum, fold(program, *child, prices, rules));
            return sum;
        }
        case ir::NodeKind::kIf: {
            auto then_value = fold(program, *node.then_branch, prices, rules);
            auto else_value =
                node.else_branch
                    ? fold(program, *node.else_branch, prices, rules)
                    : rules.empty_else();
            return rules.branch(prices.branch, std::move(then_value),
                                std::move(else_value));
        }
        case ir::NodeKind::kLoop:
            return rules.loop(node, prices.loop_iter,
                              fold(program, *node.body, prices, rules));
        case ir::NodeKind::kCall: {
            const ir::Function* callee = program.find(node.callee);
            if (callee == nullptr)
                throw std::runtime_error("undefined callee '" + node.callee +
                                         "'");
            return rules.call(node, prices.call, *callee, [&] {
                return fold(program, *callee->body, prices, rules);
            });
        }
    }
    return {};
}

/// Rules for a plain bound.  Each callee's bound is folded once and reused
/// at every later call site of the same fold.
struct BoundRules {
    using Value = double;

    std::map<const ir::Function*, double> callee_bounds;

    double block(const ir::Node&, double cost) const { return cost; }
    double seq(const ir::Node&) const { return 0.0; }
    void append(double& sum, double child) const { sum += child; }
    double empty_else() const { return 0.0; }
    double branch(double price, double then_bound, double else_bound) const {
        return price + std::max(then_bound, else_bound);
    }
    double loop(const ir::Node& loop, double price, double body) const {
        return static_cast<double>(loop.bound) * (price + body);
    }
    template <class Expand>
    double call(const ir::Node&, double price, const ir::Function& callee,
                Expand&& expand) {
        auto it = callee_bounds.find(&callee);
        if (it == callee_bounds.end())
            it = callee_bounds.emplace(&callee, expand()).first;
        return price + it->second;
    }
};

}  // namespace teamplay::wcet
