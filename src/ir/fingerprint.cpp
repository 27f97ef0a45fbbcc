#include "ir/fingerprint.hpp"

#include <deque>
#include <map>
#include <set>

#include "support/fnv.hpp"

namespace teamplay::ir {

namespace {

/// Sentinel mixed for kNoReg so "no operand" never collides with a real
/// canonical register id.
constexpr std::uint64_t kNoRegCanon = 0xFFFFFFFFFFFFFFFFULL;

/// Canonical register numbering for one function: parameters are pinned to
/// their positional ids (renaming them changes meaning), every other
/// register is renumbered by first encounter along the fixed traversal
/// order below, which erases alpha-renaming of temporaries.
class RegCanon {
public:
    explicit RegCanon(int param_count)
        : param_count_(param_count), next_(param_count) {}

    [[nodiscard]] std::uint64_t canon(Reg reg) {
        if (reg == kNoReg) return kNoRegCanon;
        if (reg < param_count_)
            return static_cast<std::uint64_t>(reg);
        const auto [it, inserted] = map_.try_emplace(reg, next_);
        if (inserted) ++next_;
        return static_cast<std::uint64_t>(it->second);
    }

private:
    int param_count_;
    Reg next_;
    std::map<Reg, Reg> map_;
};

/// Discovery state: callees are queued in first-encounter order, which is
/// itself canonical because it follows the fixed traversal.
struct Discovery {
    std::deque<std::string> pending;
    std::set<std::string> seen;
};

void hash_node(const Node& node, support::Fnv1a& hash, RegCanon& regs,
               Discovery& discovery) {
    hash.mix(static_cast<std::uint64_t>(node.kind));
    switch (node.kind) {
        case NodeKind::kBlock:
            hash.mix(node.instrs.size());
            for (const auto& instr : node.instrs) {
                hash.mix(static_cast<std::uint64_t>(instr.op));
                hash.mix(regs.canon(instr.dst));
                hash.mix(regs.canon(instr.a));
                hash.mix(regs.canon(instr.b));
                hash.mix(regs.canon(instr.c));
                hash.mix(static_cast<std::uint64_t>(instr.imm));
                hash.mix(static_cast<std::uint64_t>(instr.secret ? 1 : 0));
            }
            break;
        case NodeKind::kSeq:
            hash.mix(node.children.size());
            for (const auto& child : node.children)
                hash_node(*child, hash, regs, discovery);
            break;
        case NodeKind::kIf:
            hash.mix(regs.canon(node.cond));
            hash.mix(static_cast<std::uint64_t>(
                (node.then_branch ? 1 : 0) | (node.else_branch ? 2 : 0)));
            if (node.then_branch)
                hash_node(*node.then_branch, hash, regs, discovery);
            if (node.else_branch)
                hash_node(*node.else_branch, hash, regs, discovery);
            break;
        case NodeKind::kLoop:
            hash.mix(static_cast<std::uint64_t>(node.trip));
            hash.mix(static_cast<std::uint64_t>(node.bound));
            hash.mix(regs.canon(node.trip_reg));
            hash.mix(regs.canon(node.index_reg));
            hash.mix(static_cast<std::uint64_t>(node.stride));
            hash.mix(static_cast<std::uint64_t>(node.body ? 1 : 0));
            if (node.body) hash_node(*node.body, hash, regs, discovery);
            break;
        case NodeKind::kCall:
            // Callee names are load-bearing (certificate proofs print
            // "call <name>"), so they are hashed literally, not by
            // canonical id: kernels that differ only in a helper's name
            // must not share cached analysis results.
            hash.mix(node.callee);
            hash.mix(node.args.size());
            for (const Reg arg : node.args) hash.mix(regs.canon(arg));
            hash.mix(regs.canon(node.ret));
            if (discovery.seen.insert(node.callee).second)
                discovery.pending.push_back(node.callee);
            break;
    }
}

void hash_function(const Function& fn, support::Fnv1a& hash,
                   Discovery& discovery) {
    hash.mix(std::uint64_t{0xF17D0001});  // function boundary tag
    hash.mix(static_cast<std::uint64_t>(fn.param_count));
    RegCanon regs(fn.param_count);
    hash.mix(static_cast<std::uint64_t>(fn.body ? 1 : 0));
    if (fn.body) hash_node(*fn.body, hash, regs, discovery);
    hash.mix(regs.canon(fn.ret_reg));
}

}  // namespace

std::uint64_t structural_fingerprint(const Program& program,
                                     const std::string& entry) {
    support::Fnv1a hash;
    hash.mix(std::uint64_t{0x53464701});  // domain tag: "SFG" v1
    hash.mix(program.memory_words);

    const Function* entry_fn = program.find(entry);
    if (entry_fn == nullptr) {
        // Distinct "unresolved" domain: callers may build cache keys before
        // existence is checked; the analysis itself reports the error.
        hash.mix(std::uint64_t{0xBADE27F1});
        hash.mix(entry);
        return hash.value;
    }

    // The entry's own name is *not* hashed (relabelled clones collide);
    // callees are hashed by name at their call sites and their bodies
    // follow in first-encounter order, which the fixed traversal makes
    // canonical.
    Discovery discovery;
    discovery.seen.insert(entry);
    hash_function(*entry_fn, hash, discovery);
    while (!discovery.pending.empty()) {
        const std::string name = std::move(discovery.pending.front());
        discovery.pending.pop_front();
        const Function* fn = program.find(name);
        // A call to a function the program does not define: the name was
        // already mixed at the call site; validation rejects the program
        // downstream.
        if (fn == nullptr) continue;
        hash_function(*fn, hash, discovery);
    }
    return hash.value;
}

}  // namespace teamplay::ir
