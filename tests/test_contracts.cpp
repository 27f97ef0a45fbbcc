// Unit tests for the contract system: every proof rule, tamper detection at
// arbitrary tree positions, certificate semantics and rendering.
#include <gtest/gtest.h>

#include "contracts/system.hpp"
#include "ir/builder.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;
using contracts::ProofNode;
using contracts::ProofRule;

ProofNode leaf(double value) {
    ProofNode node;
    node.rule = ProofRule::kInstrCost;
    node.value = value;
    return node;
}

TEST(ProofRules, LeavesMustBeChildlessAndNonNegative) {
    EXPECT_TRUE(contracts::verify_proof(leaf(5.0)));
    EXPECT_FALSE(contracts::verify_proof(leaf(-1.0)));
    ProofNode bad = leaf(5.0);
    bad.children.push_back(leaf(1.0));
    EXPECT_FALSE(contracts::verify_proof(bad));
}

TEST(ProofRules, SeqSumsChildren) {
    ProofNode seq;
    seq.rule = ProofRule::kSeq;
    seq.children = {leaf(2.0), leaf(3.0), leaf(4.0)};
    seq.value = 9.0;
    EXPECT_TRUE(contracts::verify_proof(seq));
    seq.value = 8.0;
    EXPECT_FALSE(contracts::verify_proof(seq));
}

TEST(ProofRules, AltTakesMaximum) {
    ProofNode alt;
    alt.rule = ProofRule::kAlt;
    alt.children = {leaf(2.0), leaf(7.0), leaf(3.0)};
    alt.value = 7.0;
    EXPECT_TRUE(contracts::verify_proof(alt));
    alt.value = 12.0;  // claiming looser-than-max is still wrong arithmetic
    EXPECT_FALSE(contracts::verify_proof(alt));
}

TEST(ProofRules, LoopMultipliesByParam) {
    ProofNode loop;
    loop.rule = ProofRule::kLoop;
    loop.param = 10.0;
    loop.children = {leaf(4.0)};
    loop.value = 40.0;
    EXPECT_TRUE(contracts::verify_proof(loop));
    loop.param = 9.0;
    EXPECT_FALSE(contracts::verify_proof(loop));
    loop.param = 10.0;
    loop.children.push_back(leaf(1.0));  // loop must have exactly one child
    EXPECT_FALSE(contracts::verify_proof(loop));
}

TEST(ProofRules, ScaleMultipliesByParam) {
    ProofNode scale;
    scale.rule = ProofRule::kScale;
    scale.param = 1e-6;
    scale.children = {leaf(3.0)};
    scale.value = 3e-6;
    EXPECT_TRUE(contracts::verify_proof(scale));
}

TEST(ProofRules, CallSumsOverheadAndBody) {
    ProofNode call;
    call.rule = ProofRule::kCall;
    ProofNode overhead;
    overhead.rule = ProofRule::kOverhead;
    overhead.value = 4.0;
    call.children = {overhead, leaf(100.0)};
    call.value = 104.0;
    EXPECT_TRUE(contracts::verify_proof(call));
}

TEST(ProofRules, MeasuredLeafAccepted) {
    const auto node = contracts::measured_leaf(0.01, "profiled");
    EXPECT_TRUE(contracts::verify_proof(node));
    EXPECT_EQ(node.rule, ProofRule::kMeasured);
}

TEST(ProofRules, AllRulesHaveNames) {
    for (int r = 0; r <= static_cast<int>(ProofRule::kStaticLeak); ++r) {
        const auto name =
            contracts::rule_name(static_cast<ProofRule>(r));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
    for (int p = 0; p <= static_cast<int>(contracts::Property::kSecurity);
         ++p) {
        EXPECT_NE(contracts::property_name(
                      static_cast<contracts::Property>(p)),
                  "?");
    }
}

// Tamper matrix: corrupting any single node of a real proof tree must be
// detected by the independent checker.
class ProofTamper : public ::testing::TestWithParam<int> {};

void collect_nodes(ProofNode& node, std::vector<ProofNode*>& out) {
    out.push_back(&node);
    for (auto& child : node.children) collect_nodes(child, out);
}

TEST_P(ProofTamper, AnySingleNodeCorruptionDetected) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];
    auto proof = contracts::build_energy_proof_joules(
        app.program, "pill_compress", core, 1,
        contracts::scale_to_seconds(
            contracts::build_time_proof_cycles(app.program, "pill_compress",
                                               core.model),
            core.opp(1).freq_hz));
    ASSERT_TRUE(contracts::verify_proof(proof));

    std::vector<ProofNode*> nodes;
    collect_nodes(proof, nodes);
    const auto index =
        static_cast<std::size_t>(GetParam()) % nodes.size();
    const double original_bound = proof.value;
    ProofNode* target = nodes[index];
    // The security property of the checker: no single-node corruption can
    // TIGHTEN the certified bound undetected.  (Inflating a non-maximal
    // alternative branch passes the checker but leaves the root bound
    // intact — the proof still proves a sound bound, so that is fine.)
    target->value = target->value * 0.5 + 1.0;
    const bool detected = !contracts::verify_proof(proof);
    EXPECT_TRUE(detected || proof.value >= original_bound - 1e-12)
        << "corruption at node " << index << " (rule "
        << contracts::rule_name(target->rule)
        << ") tightened the bound undetected";
}

INSTANTIATE_TEST_SUITE_P(TamperPositions, ProofTamper,
                         ::testing::Range(0, 24));

TEST(Certificate, AllHoldAndFullyStaticSemantics) {
    contracts::Certificate certificate;
    certificate.app = "a";
    certificate.platform = "p";
    EXPECT_TRUE(certificate.all_hold());  // vacuous truth
    EXPECT_TRUE(certificate.fully_static());

    contracts::ContractResult holds;
    holds.holds = true;
    holds.proof = contracts::measured_leaf(1.0, "m");
    holds.analysed = 1.0;
    holds.budget = 2.0;
    holds.measured_only = true;
    certificate.results.push_back(holds);
    EXPECT_TRUE(certificate.all_hold());
    EXPECT_FALSE(certificate.fully_static());

    contracts::ContractResult fails = holds;
    fails.holds = false;
    fails.analysed = 3.0;
    certificate.results.push_back(fails);
    EXPECT_FALSE(certificate.all_hold());
}

TEST(Certificate, VerifyRejectsInconsistentHoldsFlag) {
    contracts::ContractResult result;
    result.poi = "x";
    result.property = contracts::Property::kTime;
    result.budget = 1.0;
    result.analysed = 2.0;
    result.holds = true;  // lie: 2.0 > 1.0
    result.proof = contracts::measured_leaf(2.0, "m");
    contracts::Certificate certificate;
    certificate.results.push_back(result);
    EXPECT_FALSE(contracts::verify_certificate(certificate));
}

TEST(Certificate, VerifyRejectsAnalysedProofMismatch) {
    contracts::ContractResult result;
    result.budget = 10.0;
    result.analysed = 1.0;
    result.holds = true;
    result.proof = contracts::measured_leaf(5.0, "m");  // proof says 5
    contracts::Certificate certificate;
    certificate.results.push_back(result);
    EXPECT_FALSE(contracts::verify_certificate(certificate));
}

TEST(Certificate, TextRenderingContainsVerdictAndUnits) {
    const auto app = usecases::make_camera_pill_app();
    const auto& core = app.platform.cores[0];
    contracts::ContractInput input;
    input.poi = "delta";
    input.function = "pill_delta";
    input.program = &app.program;
    input.core = &core;
    input.opp_index = 2;
    input.time_budget_s = 1.0;
    input.energy_budget_j = 1.0;
    const auto certificate =
        contracts::check_contracts("pill", "camera-pill", {input});
    const auto text = certificate.to_text();
    EXPECT_NE(text.find("TeamPlay ETS Certificate"), std::string::npos);
    EXPECT_NE(text.find("ALL CONTRACTS HOLD"), std::string::npos);
    EXPECT_NE(text.find("delta.time"), std::string::npos);
    EXPECT_NE(text.find("delta.energy"), std::string::npos);
    EXPECT_NE(text.find("statically proven"), std::string::npos);
}

TEST(Contracts, MissingStaticEvidenceThrows) {
    contracts::ContractInput input;
    input.poi = "x";
    input.function = "f";
    input.time_budget_s = 1.0;
    input.measured_only = false;  // static proof requested, no program/core
    EXPECT_THROW(
        (void)contracts::check_contracts("a", "p", {input}),
        std::invalid_argument);

    input.time_budget_s = -1.0;  // energy contract alone
    input.energy_budget_j = 1.0;
    EXPECT_THROW(
        (void)contracts::check_contracts("a", "p", {input}),
        std::invalid_argument);
}

TEST(Contracts, SecurityContractUsesLeakageProxy) {
    contracts::ContractInput input;
    input.poi = "crypto";
    input.function = "f";
    input.measured_only = true;
    input.leakage_budget = 2.0;
    input.leakage_proxy = 4.0;  // too leaky
    const auto certificate = contracts::check_contracts("a", "p", {input});
    ASSERT_EQ(certificate.results.size(), 1u);
    EXPECT_EQ(certificate.results[0].property,
              contracts::Property::kSecurity);
    EXPECT_FALSE(certificate.results[0].holds);
    EXPECT_TRUE(contracts::verify_certificate(certificate));
}

TEST(Contracts, NegativeBudgetsMeanNoContract) {
    contracts::ContractInput input;
    input.poi = "x";
    input.function = "f";
    input.measured_only = true;
    // All budgets negative -> nothing to check.
    const auto certificate = contracts::check_contracts("a", "p", {input});
    EXPECT_TRUE(certificate.results.empty());
    EXPECT_TRUE(certificate.all_hold());
}

TEST(Contracts, TimeProofRejectsComplexCore) {
    const auto app = usecases::make_camera_pill_app();
    const auto tk1 = platform::apalis_tk1();
    EXPECT_THROW((void)contracts::build_time_proof_cycles(
                     app.program, "pill_delta", tk1.cores[0].model),
                 std::invalid_argument);
    EXPECT_THROW((void)contracts::build_energy_proof_joules(
                     app.program, "pill_delta", tk1.cores[0], 0, {}),
                 std::invalid_argument);
}

TEST(Contracts, ProofForUnknownFunctionThrows) {
    const auto app = usecases::make_camera_pill_app();
    EXPECT_THROW((void)contracts::build_time_proof_cycles(
                     app.program, "ghost", app.platform.cores[0].model),
                 std::invalid_argument);
    EXPECT_THROW((void)contracts::build_energy_proof_joules(
                     app.program, "ghost", app.platform.cores[0], 0, {}),
                 std::invalid_argument);
}

}  // namespace
