// ISA-level timing and energy cost models.
//
// This is the substrate for the paper's Energy Modelling Challenge (Sec.
// III-B): each supported core ships a per-instruction-class table of cycle
// counts and dynamic energy costs, in the spirit of the published Cortex-M0
// model (Georgiou et al. [9]) and the GR712RC/LEON3 power data (Nikov et al.
// [8][29]).  Predictable cores have exact deterministic costs; complex cores
// additionally carry stochastic timing parameters (cache misses, pipeline
// jitter) that make static analysis unsound — which is precisely what forces
// the paper's second workflow.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "ir/instr.hpp"
#include "support/fnv.hpp"

namespace teamplay::isa {

/// Coarse instruction classes: the granularity at which the energy-model
/// fitting methodology works (finer than "one number", coarser than
/// per-encoding; the sweet spot reported by the TeamPlay energy work).
enum class InstrClass : std::uint8_t {
    kNop,
    kMove,    ///< register moves and immediates
    kAlu,     ///< add/sub/logic/compare/shift
    kMul,
    kDiv,
    kLoad,
    kStore,
    kSelect,  ///< branch-free conditional: costed as a short ALU sequence
};

inline constexpr int kNumInstrClasses =
    static_cast<int>(InstrClass::kSelect) + 1;

/// Classify an IR opcode.
[[nodiscard]] InstrClass instr_class(ir::Opcode op);

/// Class mnemonic for reports.
[[nodiscard]] std::string_view instr_class_name(InstrClass cls);

/// Cost of one instruction class on a target: latency in cycles and dynamic
/// energy per execution at the nominal voltage.
struct CostEntry {
    double cycles = 1.0;
    double energy_pj = 0.0;
};

/// Per-core cost model.
struct TargetModel {
    std::string name;

    /// True when instruction latencies are statically exact (Sec. II-A's
    /// definition of a predictable architecture).
    bool predictable = true;

    std::array<CostEntry, kNumInstrClasses> cost{};

    // Structural overheads charged by both the simulator and the static
    // analyses, so static bounds are sound by construction on predictable
    // cores.
    double branch_cycles = 2.0;        ///< per executed If (compare+branch)
    double branch_energy_pj = 0.0;
    double loop_iter_cycles = 2.0;     ///< per iteration (index+test+branch)
    double loop_iter_energy_pj = 0.0;
    double call_cycles = 4.0;          ///< per call (save/restore/jump)
    double call_energy_pj = 0.0;

    /// Reference voltage the energy table was characterised at; dynamic
    /// energy scales with (V/Vnom)^2 when running at another operating point.
    double nominal_voltage = 1.2;

    /// Data-dependent power component: each instruction's instantaneous
    /// power also carries alpha * popcount(operand) pJ.  This is what the
    /// power side-channel metrics observe (Hamming-weight leakage model).
    double data_alpha_pj_per_bit = 1.5;

    // -- complex-architecture stochastic timing ----------------------------
    // Ignored (must be zero) for predictable cores.
    double cache_miss_prob = 0.0;      ///< per memory access
    double cache_miss_penalty = 0.0;   ///< cycles added on a miss
    double timing_jitter_sigma = 0.0;  ///< multiplicative latency noise

    /// Cycles an instruction of class `cls` takes (mean for complex cores).
    [[nodiscard]] double cycles_of(InstrClass cls) const {
        return cost[static_cast<std::size_t>(cls)].cycles;
    }
    /// Dynamic energy at nominal voltage, in picojoules.
    [[nodiscard]] double energy_of(InstrClass cls) const {
        return cost[static_cast<std::size_t>(cls)].energy_pj;
    }
};

/// Fold every field of `model` into `hash`, in declaration order.  The
/// trace cache's model fingerprint and the evaluation cache's core
/// identity both start here, and the core identity is part of every
/// result-store key, so the order never changes.
void mix_model(support::Fnv1a& hash, const TargetModel& model);

// -- factory functions for the cores the paper's platforms use -------------

/// ARM Cortex-M0 (Nucleo STM32F091RC, camera pill, DL-on-M0 use cases).
[[nodiscard]] TargetModel cortex_m0_model();

/// Gaisler LEON3FT (GR712RC, space use case).  Predictable by design.
[[nodiscard]] TargetModel leon3_model();

/// ARM Cortex-A15 (Apalis TK1).  Complex: OoO pipeline, caches.
[[nodiscard]] TargetModel cortex_a15_model();

/// ARM Cortex-A57 (Jetson TX2 / Nano big cores).  Complex.
[[nodiscard]] TargetModel cortex_a57_model();

/// NVIDIA Denver 2 (Jetson TX2).  Complex, aggressive code morphing -> high
/// timing variance.
[[nodiscard]] TargetModel denver2_model();

/// Embedded GPU streaming-multiprocessor aggregate (TK1/TX2/Nano GPU).
/// Modelled as a throughput core: low effective cycles for MUL-heavy code,
/// high data-parallel energy efficiency, very high timing variance.
[[nodiscard]] TargetModel gpu_sm_model();

/// Low-power FPGA image co-processor of the camera pill, modelled as a fixed
/// accelerator core that executes the offloaded kernels very efficiently.
[[nodiscard]] TargetModel pill_fpga_model();

}  // namespace teamplay::isa
