#include "contracts/certificate.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "energy/analyser.hpp"
#include "support/units.hpp"
#include "wcet/fold.hpp"

namespace teamplay::contracts {

std::string_view property_name(Property property) {
    switch (property) {
        case Property::kTime: return "time";
        case Property::kEnergy: return "energy";
        case Property::kSecurity: return "security";
    }
    return "?";
}

std::string_view rule_name(ProofRule rule) {
    switch (rule) {
        case ProofRule::kInstrCost: return "instr-cost";
        case ProofRule::kOverhead: return "overhead";
        case ProofRule::kSeq: return "seq";
        case ProofRule::kAlt: return "alt";
        case ProofRule::kLoop: return "loop";
        case ProofRule::kCall: return "call";
        case ProofRule::kScale: return "scale";
        case ProofRule::kMeasured: return "measured";
        case ProofRule::kStaticLeak: return "static-leak";
    }
    return "?";
}

namespace {

bool close(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a),
                                               std::abs(b)});
}

}  // namespace

bool verify_proof(const ProofNode& node) {
    for (const auto& child : node.children)
        if (!verify_proof(child)) return false;
    switch (node.rule) {
        case ProofRule::kInstrCost:
        case ProofRule::kOverhead:
        case ProofRule::kMeasured:
        case ProofRule::kStaticLeak:
            return node.children.empty() && node.value >= 0.0;
        case ProofRule::kSeq:
        case ProofRule::kCall: {
            double sum = 0.0;
            for (const auto& child : node.children) sum += child.value;
            return close(node.value, sum);
        }
        case ProofRule::kAlt: {
            double best = 0.0;
            for (const auto& child : node.children)
                best = std::max(best, child.value);
            return close(node.value, best);
        }
        case ProofRule::kLoop:
        case ProofRule::kScale: {
            if (node.children.size() != 1) return false;
            return close(node.value, node.param * node.children[0].value);
        }
    }
    return false;
}

std::string Certificate::to_text() const {
    std::ostringstream os;
    os << "=== TeamPlay ETS Certificate ===\n"
       << "application: " << app << "\nplatform:    " << platform << "\n"
       << "verdict:     " << (all_hold() ? "ALL CONTRACTS HOLD" : "VIOLATION")
       << (fully_static() ? " (statically proven)"
                          : " (contains measured evidence)")
       << "\n";
    for (const auto& result : results) {
        const bool time_like = result.property != Property::kSecurity;
        const auto fmt = [&](double v) -> std::string {
            if (result.property == Property::kTime)
                return support::format_time(v);
            if (result.property == Property::kEnergy)
                return support::format_energy(v);
            std::ostringstream tmp;
            tmp << v;
            return tmp.str();
        };
        os << "  [" << (result.holds ? "ok" : "FAIL") << "] " << result.poi
           << "." << property_name(result.property) << ": analysed "
           << fmt(result.analysed) << " vs budget " << fmt(result.budget)
           << (result.measured_only ? " (measured)" : " (proven)") << "\n";
        (void)time_like;
    }
    return os.str();
}

bool verify_certificate(const Certificate& certificate) {
    for (const auto& result : certificate.results) {
        if (!verify_proof(result.proof)) return false;
        if (!(std::abs(result.analysed - result.proof.value) <=
              1e-9 * std::max(1.0, std::abs(result.analysed))))
            return false;
        const bool should_hold = result.analysed <= result.budget;
        if (result.holds != should_hold) return false;
    }
    return true;
}

namespace {

ProofNode make_node(ProofRule rule, double value, std::string note = {}) {
    ProofNode node;
    node.rule = rule;
    node.value = value;
    node.note = std::move(note);
    return node;
}

/// A node with two children, moved in.
ProofNode pair_node(ProofRule rule, double value, ProofNode first,
                    ProofNode second) {
    ProofNode node = make_node(rule, value);
    node.children.reserve(2);
    node.children.push_back(std::move(first));
    node.children.push_back(std::move(second));
    return node;
}

/// Rules that build the proof tree of a fold (wcet/fold.hpp): each rule
/// application becomes a node that verify_proof re-derives, and every call
/// site expands its callee.
struct ProofRules {
    using Value = ProofNode;

    std::string_view block_note;  ///< follows the block's instruction count

    ProofNode block(const ir::Node& block, double cost) const {
        return make_node(
            ProofRule::kInstrCost, cost,
            std::to_string(block.instrs.size()).append(block_note));
    }
    ProofNode seq(const ir::Node& seq) const {
        ProofNode node = make_node(ProofRule::kSeq, 0.0);
        node.children.reserve(seq.children.size());
        return node;
    }
    void append(ProofNode& seq, ProofNode child) const {
        seq.children.push_back(std::move(child));
        seq.value += seq.children.back().value;
    }
    ProofNode empty_else() const {
        return make_node(ProofRule::kInstrCost, 0.0, "empty else");
    }
    ProofNode branch(double price, ProofNode then_proof,
                     ProofNode else_proof) const {
        const double worst =
            std::max(std::max(0.0, then_proof.value), else_proof.value);
        ProofNode alt = pair_node(ProofRule::kAlt, worst,
                                  std::move(then_proof), std::move(else_proof));
        ProofNode overhead = make_node(ProofRule::kOverhead, price, "branch");
        const double value = overhead.value + alt.value;
        return pair_node(ProofRule::kSeq, value, std::move(overhead),
                         std::move(alt));
    }
    ProofNode loop(const ir::Node& loop, double price, ProofNode body) const {
        ProofNode overhead =
            make_node(ProofRule::kOverhead, price, "loop iteration");
        const double per_iteration = overhead.value + body.value;
        ProofNode iteration = pair_node(ProofRule::kSeq, per_iteration,
                                        std::move(overhead), std::move(body));
        ProofNode node = make_node(ProofRule::kLoop, 0.0,
                                   "bound=" + std::to_string(loop.bound));
        node.param = static_cast<double>(loop.bound);
        node.value = node.param * iteration.value;
        node.children.push_back(std::move(iteration));
        return node;
    }
    template <class Expand>
    ProofNode call(const ir::Node& call, double price, const ir::Function&,
                   Expand&& expand) const {
        ProofNode overhead =
            make_node(ProofRule::kOverhead, price, "call " + call.callee);
        ProofNode body = expand();
        const double value = overhead.value + body.value;
        ProofNode node = pair_node(ProofRule::kCall, value,
                                   std::move(overhead), std::move(body));
        node.note = call.callee;
        return node;
    }
};

/// The entry check both static proofs share.
const ir::Function& proof_entry(const ir::Program& program,
                                const std::string& function,
                                const isa::TargetModel& model) {
    const ir::Function* fn = program.find(function);
    if (fn == nullptr)
        throw std::invalid_argument("proof: undefined function '" + function +
                                    "'");
    if (!model.predictable)
        throw std::invalid_argument(
            "proof: static time proof requires a predictable core");
    return *fn;
}

}  // namespace

ProofNode build_time_proof_cycles(const ir::Program& program,
                                  const std::string& function,
                                  const isa::TargetModel& model) {
    const ir::Function& fn = proof_entry(program, function, model);
    ProofRules rules{" instrs"};
    return wcet::fold(program, *fn.body, wcet::cycle_prices(model), rules);
}

ProofNode scale_to_seconds(ProofNode cycles_proof, double freq_hz) {
    ProofNode root;
    root.rule = ProofRule::kScale;
    root.param = 1.0 / freq_hz;
    root.value = root.param * cycles_proof.value;
    root.note = "cycles -> seconds at " + support::format_frequency(freq_hz);
    root.children.push_back(std::move(cycles_proof));
    return root;
}

ProofNode build_energy_proof_joules(const ir::Program& program,
                                    const std::string& function,
                                    const platform::Core& core,
                                    std::size_t opp_index, ProofNode time_s) {
    const ir::Function& fn = proof_entry(program, function, core.model);
    const auto& point = core.opp(opp_index);

    ProofRules rules{" instrs (worst-case operands)"};
    ProofNode dynamic_pj = wcet::fold(
        program, *fn.body, energy::worst_energy_prices(core.model), rules);
    ProofNode dynamic_j;
    dynamic_j.rule = ProofRule::kScale;
    dynamic_j.param = core.energy_scale(point) * 1e-12;
    dynamic_j.value = dynamic_j.param * dynamic_pj.value;
    dynamic_j.note = "pJ -> J with V^2 scaling at " +
                     std::to_string(point.voltage) + " V";
    dynamic_j.children.push_back(std::move(dynamic_pj));

    ProofNode static_j;
    static_j.rule = ProofRule::kScale;
    static_j.param = point.static_power_w;
    static_j.value = static_j.param * time_s.value;
    static_j.note = "static power x WCET";
    static_j.children.push_back(std::move(time_s));

    ProofNode total;
    total.rule = ProofRule::kSeq;
    total.value = dynamic_j.value + static_j.value;
    total.note = "dynamic + static";
    total.children.push_back(std::move(dynamic_j));
    total.children.push_back(std::move(static_j));
    return total;
}

ProofNode measured_leaf(double value, const std::string& note) {
    ProofNode leaf;
    leaf.rule = ProofRule::kMeasured;
    leaf.value = value;
    leaf.note = note;
    return leaf;
}

ProofNode leakage_leaf(double proxy, const std::string& note) {
    ProofNode leaf;
    leaf.rule = ProofRule::kStaticLeak;
    leaf.value = proxy;
    leaf.note = note;
    return leaf;
}

}  // namespace teamplay::contracts
