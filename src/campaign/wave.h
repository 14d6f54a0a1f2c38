/**
 * @file
 * 64-episode wave execution for fault-injection campaigns.
 *
 * A *wave* runs up to 64 independent campaign episodes in lockstep on
 * one BatchSimulator pass over a shared fault-bank tape
 * (lift::build_fault_bank): each lane enables its own fault, seeds its
 * own fm_rand / scheduler streams, and keeps its own slot clock,
 * aging-library bookkeeping, and detection outcome. The ISS side runs
 * scalar per lane (it is a negligible fraction of the work — gate
 * evaluation dominates by orders of magnitude) through the
 * split-transaction protocol (cpu::FuIssue / Iss::step_one), while
 * every module clock edge is shared across lanes via
 * cpu::BatchNetlistEngine.
 *
 * Semantics contract: per-lane results are bit-identical to the scalar
 * reference executor (tests/campaign_oracle.h: one NetlistEngine and
 * one workload_corrupts probe per standalone failing netlist), and
 * independent of wave composition — which jobs happen to share a wave,
 * in which lanes. That is what keeps sharded, resumed, retried and
 * mid-wave-killed campaigns byte-identical to a straight run. The
 * lockstep tests in tests/test_campaign_wave.cpp pin both properties.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "campaign/job.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sim/eval_tape.h"

namespace vega::campaign {

/** Episodes per wave (mirrors cpu::BatchNetlistEngine::kLanes). */
constexpr size_t kWaveLanes = 64;

/** Read-only per-campaign context shared by every wave. */
struct WaveContext
{
    ModuleKind kind = ModuleKind::Alu32;
    /** Compiled fault-bank netlist tape (one per campaign). */
    std::shared_ptr<const EvalTape> tape;
    /** Width of the bank's "fm_en" enable bus. */
    size_t num_faults = 0;
    /** Per bank position: does the fault read "fm_rand"? */
    const std::vector<char> *fault_random = nullptr;
    /** The campaign's runtime suite (shared, never copied per lane). */
    const std::vector<runtime::TestCase> *suite = nullptr;
};

/** One lane's work order in an injection wave. */
struct WaveJob
{
    JobSpec spec;
    /** Enable bit of this job's fault in the bank. */
    size_t bank_index = 0;
    /** Characterization verdict for this job's fault. */
    bool corrupts = false;
};

/**
 * Batched characterization: run the representative kernel once per
 * lane, fault (bank position, backend seed) per lane. Returns the
 * corrupts verdict per input position — identical to scalar
 * workload_corrupts() on each standalone failing netlist.
 */
std::vector<char>
characterize_wave(const WaveContext &ctx,
                  const std::vector<std::pair<size_t, uint64_t>> &faults);

/**
 * Run up to 64 injection jobs in lockstep. Returns JobResults in input
 * order, each bit-identical to the reference executor's job of the
 * same spec (tests/campaign_oracle.h).
 */
std::vector<JobResult> run_wave(const WaveContext &ctx,
                                const std::vector<WaveJob> &jobs);

} // namespace vega::campaign
