#include "isa/target_model.hpp"

namespace teamplay::isa {

InstrClass instr_class(ir::Opcode op) {
    using ir::Opcode;
    switch (op) {
        case Opcode::kNop:
            return InstrClass::kNop;
        case Opcode::kMovImm:
        case Opcode::kMov:
            return InstrClass::kMove;
        case Opcode::kMul:
            return InstrClass::kMul;
        case Opcode::kDiv:
        case Opcode::kRem:
            return InstrClass::kDiv;
        case Opcode::kLoad:
            return InstrClass::kLoad;
        case Opcode::kStore:
            return InstrClass::kStore;
        case Opcode::kSelect:
            return InstrClass::kSelect;
        default:
            return InstrClass::kAlu;
    }
}

std::string_view instr_class_name(InstrClass cls) {
    switch (cls) {
        case InstrClass::kNop: return "nop";
        case InstrClass::kMove: return "move";
        case InstrClass::kAlu: return "alu";
        case InstrClass::kMul: return "mul";
        case InstrClass::kDiv: return "div";
        case InstrClass::kLoad: return "load";
        case InstrClass::kStore: return "store";
        case InstrClass::kSelect: return "select";
    }
    return "?";
}

void mix_model(support::Fnv1a& hash, const TargetModel& model) {
    hash.mix(model.name).mix(std::uint64_t{model.predictable});
    for (const auto& entry : model.cost)
        hash.mix(entry.cycles).mix(entry.energy_pj);
    hash.mix(model.branch_cycles).mix(model.branch_energy_pj);
    hash.mix(model.loop_iter_cycles).mix(model.loop_iter_energy_pj);
    hash.mix(model.call_cycles).mix(model.call_energy_pj);
    hash.mix(model.nominal_voltage).mix(model.data_alpha_pj_per_bit);
    hash.mix(model.cache_miss_prob).mix(model.cache_miss_penalty);
    hash.mix(model.timing_jitter_sigma);
}

namespace {

/// Helper to fill the cost table in class order.
void set_costs(TargetModel& m, CostEntry nop, CostEntry move, CostEntry alu,
               CostEntry mul, CostEntry div, CostEntry load, CostEntry store,
               CostEntry select) {
    m.cost[static_cast<std::size_t>(InstrClass::kNop)] = nop;
    m.cost[static_cast<std::size_t>(InstrClass::kMove)] = move;
    m.cost[static_cast<std::size_t>(InstrClass::kAlu)] = alu;
    m.cost[static_cast<std::size_t>(InstrClass::kMul)] = mul;
    m.cost[static_cast<std::size_t>(InstrClass::kDiv)] = div;
    m.cost[static_cast<std::size_t>(InstrClass::kLoad)] = load;
    m.cost[static_cast<std::size_t>(InstrClass::kStore)] = store;
    m.cost[static_cast<std::size_t>(InstrClass::kSelect)] = select;
}

}  // namespace

TargetModel cortex_m0_model() {
    TargetModel m;
    m.name = "cortex-m0";
    m.predictable = true;
    // Shaped after the Georgiou et al. comprehensive Cortex-M0 model [9]:
    // single-cycle ALU and (fast-multiplier option) MUL, no hardware divider
    // (runtime routine dominated by ~17 cycles), 2-cycle flash/SRAM access.
    // Dynamic energies in the tens-of-pJ-per-instruction range typical of an
    // M0 at 1.8 V.
    set_costs(m,
              /*nop*/ {1.0, 20.0},
              /*move*/ {1.0, 26.0},
              /*alu*/ {1.0, 30.0},
              /*mul*/ {1.0, 42.0},
              /*div*/ {17.0, 480.0},
              /*load*/ {2.0, 64.0},
              /*store*/ {2.0, 60.0},
              /*select*/ {3.0, 92.0});
    m.branch_cycles = 3.0;
    m.branch_energy_pj = 85.0;
    // Per-iteration overhead: index increment (1) + compare (1) + taken
    // branch (2, partially folded) on the M0's 3-stage pipeline.
    m.loop_iter_cycles = 4.0;
    m.loop_iter_energy_pj = 118.0;
    m.call_cycles = 4.0;
    m.call_energy_pj = 120.0;
    m.nominal_voltage = 1.8;
    m.data_alpha_pj_per_bit = 1.2;
    return m;
}

TargetModel leon3_model() {
    TargetModel m;
    m.name = "leon3ft";
    m.predictable = true;
    // GR712RC: dual-core LEON3FT, 7-stage in-order pipeline.  Predictable by
    // design; rad-hard process makes per-instruction energy much larger than
    // a commercial M0 (shaped after the GR712RC power dataset [29]).
    set_costs(m,
              /*nop*/ {1.0, 180.0},
              /*move*/ {1.0, 210.0},
              /*alu*/ {1.0, 240.0},
              /*mul*/ {2.0, 420.0},
              /*div*/ {35.0, 6200.0},
              /*load*/ {2.0, 460.0},
              /*store*/ {2.0, 430.0},
              /*select*/ {3.0, 720.0});
    m.branch_cycles = 3.0;
    m.branch_energy_pj = 560.0;
    // Increment + compare + taken branch through the 7-stage pipeline.
    m.loop_iter_cycles = 5.0;
    m.loop_iter_energy_pj = 960.0;
    m.call_cycles = 6.0;
    m.call_energy_pj = 1100.0;
    m.nominal_voltage = 1.8;
    m.data_alpha_pj_per_bit = 4.0;
    return m;
}

TargetModel cortex_a15_model() {
    TargetModel m;
    m.name = "cortex-a15";
    m.predictable = false;
    // Apalis TK1 big core: 3-wide out-of-order.  Mean effective latencies
    // are sub-cycle for ALU work; caches and the OoO window introduce the
    // variance that defeats static WCET analysis.
    set_costs(m,
              /*nop*/ {0.3, 120.0},
              /*move*/ {0.35, 150.0},
              /*alu*/ {0.4, 180.0},
              /*mul*/ {1.0, 320.0},
              /*div*/ {9.0, 2400.0},
              /*load*/ {1.2, 380.0},
              /*store*/ {1.1, 350.0},
              /*select*/ {0.8, 300.0});
    m.branch_cycles = 1.5;
    m.branch_energy_pj = 260.0;
    m.loop_iter_cycles = 1.2;
    m.loop_iter_energy_pj = 240.0;
    m.call_cycles = 5.0;
    m.call_energy_pj = 700.0;
    m.nominal_voltage = 1.0;
    m.data_alpha_pj_per_bit = 2.2;
    m.cache_miss_prob = 0.02;
    m.cache_miss_penalty = 60.0;
    m.timing_jitter_sigma = 0.08;
    return m;
}

TargetModel cortex_a57_model() {
    TargetModel m;
    m.name = "cortex-a57";
    m.predictable = false;
    set_costs(m,
              /*nop*/ {0.28, 110.0},
              /*move*/ {0.3, 135.0},
              /*alu*/ {0.35, 165.0},
              /*mul*/ {0.9, 290.0},
              /*div*/ {8.0, 2100.0},
              /*load*/ {1.1, 340.0},
              /*store*/ {1.0, 320.0},
              /*select*/ {0.7, 270.0});
    m.branch_cycles = 1.4;
    m.branch_energy_pj = 230.0;
    m.loop_iter_cycles = 1.1;
    m.loop_iter_energy_pj = 215.0;
    m.call_cycles = 5.0;
    m.call_energy_pj = 640.0;
    m.nominal_voltage = 1.0;
    m.data_alpha_pj_per_bit = 2.0;
    m.cache_miss_prob = 0.018;
    m.cache_miss_penalty = 55.0;
    m.timing_jitter_sigma = 0.07;
    return m;
}

TargetModel denver2_model() {
    TargetModel m;
    m.name = "denver2";
    m.predictable = false;
    // Dynamic-code-optimisation core: excellent steady-state throughput but
    // the largest timing variance of the supported cores (re-optimisation
    // events), which is why the paper's TX2 flow must profile dynamically.
    set_costs(m,
              /*nop*/ {0.25, 115.0},
              /*move*/ {0.28, 140.0},
              /*alu*/ {0.3, 170.0},
              /*mul*/ {0.8, 300.0},
              /*div*/ {7.0, 2000.0},
              /*load*/ {1.0, 350.0},
              /*store*/ {0.95, 330.0},
              /*select*/ {0.6, 280.0});
    m.branch_cycles = 1.3;
    m.branch_energy_pj = 240.0;
    m.loop_iter_cycles = 1.0;
    m.loop_iter_energy_pj = 220.0;
    m.call_cycles = 4.5;
    m.call_energy_pj = 620.0;
    m.nominal_voltage = 1.0;
    m.data_alpha_pj_per_bit = 2.1;
    m.cache_miss_prob = 0.02;
    m.cache_miss_penalty = 58.0;
    m.timing_jitter_sigma = 0.15;
    return m;
}

TargetModel gpu_sm_model() {
    TargetModel m;
    m.name = "gpu-sm";
    m.predictable = false;
    // Aggregate of the embedded GPU's streaming multiprocessors as one
    // throughput core: data-parallel kernels (the CNN layers, vision
    // filters) see very low effective per-operation latency and energy, at
    // the price of high launch overhead (call cost) and timing variance.
    set_costs(m,
              /*nop*/ {0.05, 30.0},
              /*move*/ {0.06, 40.0},
              /*alu*/ {0.07, 48.0},
              /*mul*/ {0.08, 55.0},
              /*div*/ {1.5, 600.0},
              /*load*/ {0.25, 110.0},
              /*store*/ {0.25, 105.0},
              /*select*/ {0.1, 70.0});
    m.branch_cycles = 0.8;   // divergence cost
    m.branch_energy_pj = 90.0;
    m.loop_iter_cycles = 0.2;
    m.loop_iter_energy_pj = 40.0;
    m.call_cycles = 4000.0;  // kernel launch latency
    m.call_energy_pj = 500000.0;
    m.nominal_voltage = 1.0;
    m.data_alpha_pj_per_bit = 1.0;
    m.cache_miss_prob = 0.01;
    m.cache_miss_penalty = 120.0;
    m.timing_jitter_sigma = 0.12;
    return m;
}

TargetModel pill_fpga_model() {
    TargetModel m;
    m.name = "pill-fpga";
    m.predictable = true;
    // The camera pill's low-power FPGA co-processor: fixed-function image
    // kernels, fully deterministic, extremely low dynamic energy.
    set_costs(m,
              /*nop*/ {1.0, 4.0},
              /*move*/ {1.0, 5.0},
              /*alu*/ {1.0, 6.0},
              /*mul*/ {1.0, 9.0},
              /*div*/ {8.0, 70.0},
              /*load*/ {1.0, 8.0},
              /*store*/ {1.0, 8.0},
              /*select*/ {1.0, 7.0});
    m.branch_cycles = 1.0;
    m.branch_energy_pj = 6.0;
    m.loop_iter_cycles = 1.0;
    m.loop_iter_energy_pj = 6.0;
    m.call_cycles = 2.0;
    m.call_energy_pj = 12.0;
    m.nominal_voltage = 1.2;
    m.data_alpha_pj_per_bit = 0.4;
    return m;
}

}  // namespace teamplay::isa
