/**
 * @file
 * Gate-level execution target for campaign jobs.
 *
 * NetlistEngine mounts one (typically failing) netlist as the ISS's
 * functional unit and runs aging-library test blocks against it,
 * exactly like the Table 6/7 evaluation: hardware state persists
 * across test blocks, and stalls / wrong results / transaction-tag
 * anomalies surface as runtime::Detection outcomes. The campaign
 * executor itself runs on wave lanes (campaign/wave.h); this scalar
 * engine serves the fleet's fault matrix and the test-only reference
 * executor (tests/campaign_oracle.h) the waves are pinned against.
 *
 * workload_corrupts() answers the other half of the SDC question: does
 * this fault silently corrupt a representative application's output?
 * A job whose fault corrupts the workload but whose suite run never
 * fires is an SDC *escape* — the number the campaign exists to drive
 * to zero.
 */
#pragma once

#include <cstdint>

#include "cpu/netlist_backend.h"
#include "runtime/aging_library.h"
#include "workloads/kernels.h"

namespace vega::campaign {

/**
 * Instruction budgets for campaign runs. A fault that corrupts loop
 * control flow can turn a terminating kernel into an infinite one, and
 * the ISS default watchdog (100M instructions) is far too generous
 * when every instruction is a gate-level netlist simulation. The
 * representative kernels retire at most ~81k instructions (ud; crc32
 * and minver are well under that), so the workload bound only ever
 * trips on runaway faulty executions — and every extra watchdog
 * instruction is pure wall-clock on runs already known corrupt. Wave
 * lanes and the scalar engines share these so characterization
 * verdicts stay identical between them.
 */
constexpr uint64_t kWorkloadWatchdog = 120000;
constexpr uint64_t kTestWatchdog = 1000000;

class NetlistEngine : public runtime::Engine
{
  public:
    NetlistEngine(ModuleKind kind, const Netlist &netlist,
                  bool has_random_input = false, uint64_t seed = 1);

    /** Share a pre-compiled tape of the (failing) netlist — the fleet
     *  simulator's characterization pass spins up one engine per
     *  (fault, test) pair and must not re-lower the netlist each time. */
    NetlistEngine(ModuleKind kind, std::shared_ptr<const EvalTape> tape,
                  bool has_random_input = false, uint64_t seed = 1);

    runtime::Detection run(const runtime::TestCase &tc) override;

    /** Gate-level cycles simulated so far. */
    uint64_t cycles() const { return backend_.cycles(); }

  private:
    ModuleKind kind_;
    cpu::NetlistBackend backend_;
    uint64_t tags_seen_ = 0;
};

/**
 * The kernel whose checksum stands in for "application data" when a
 * fault in @p kind's unit is probed: minver (FP) for the FPU, crc32
 * for the ALU, ud (divide/remainder chains) for the MDU.
 */
const workloads::Kernel &representative_kernel(ModuleKind kind);

/**
 * Run the representative kernel with @p netlist mounted as the unit.
 * True when the run stalls or the stored checksum deviates — i.e. the
 * fault reaches this workload's data.
 */
bool workload_corrupts(ModuleKind kind, const Netlist &netlist,
                       bool has_random_input = false, uint64_t seed = 1);

/** Tape-sharing variant of workload_corrupts. */
bool workload_corrupts(ModuleKind kind,
                       std::shared_ptr<const EvalTape> tape,
                       bool has_random_input = false, uint64_t seed = 1);

} // namespace vega::campaign
