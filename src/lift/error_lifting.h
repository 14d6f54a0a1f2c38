/**
 * @file
 * The Error Lifting phase (§3.3), end to end.
 *
 * For every violating endpoint pair from aging-aware STA, instrument the
 * module with a failure model and a shadow replica, run bounded model
 * checking on the cover property, lower each trace to a software test
 * case, and validate it against the corresponding failing netlist. The
 * per-pair outcomes reproduce Table 4's categories:
 *
 *   Success           ("S")  at least one validated test case
 *   Unreachable       ("UR") every configuration formally cannot err
 *   Timeout           ("FF") the formal tool ran out of budget
 *   ConversionFailed  ("FC") a trace exists but no observable software
 *                            check distinguishes the failure
 */
#pragma once

#include <string>
#include <vector>

#include "common/error.h"
#include "formal/bmc.h"
#include "lift/failure_model.h"
#include "lift/instruction_builder.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sta/sta.h"

namespace vega::lift {

/** Trace-generation engine selection (§6.3). */
enum class TraceEngine {
    Formal,  ///< BMC only (the paper's baseline)
    Fuzzing, ///< random exploration only; cannot prove unreachability
    Hybrid,  ///< fuzz first (cheap), fall back to BMC for the rest
};

const char *trace_engine_name(TraceEngine engine);

struct LiftConfig
{
    formal::BmcOptions bmc;
    /** Enable the §3.3.4 edge-triggered mitigation variants. */
    bool mitigation = false;
    /** Analyze only the first N pairs (benchmarks subset with this). */
    size_t max_pairs = SIZE_MAX;
    /** How cover traces are produced. */
    TraceEngine engine = TraceEngine::Formal;
    /** Episode budget when the fuzzing engine participates. */
    size_t fuzz_episodes = 1500;

    // Retry-with-degradation ladder for the formal engine. Defaults
    // reproduce the single-attempt baseline; the campaign CLI opts in.
    // The rungs re-run one formal::CoverBatch per pair-batch: a retry
    // resumes each still-starved target at its timed-out bound on the
    // same solver with a bigger budget instead of re-unrolling.
    /** Formal attempts per configuration; Timeouts retry with the
     *  conflict/wall budget multiplied by formal_budget_growth. */
    int formal_attempts = 1;
    /** Budget multiplier between formal attempts. */
    double formal_budget_growth = 4.0;
    /** After the last formal attempt still times out, fall back to the
     *  fuzzer before recording a structured Exhausted outcome. */
    bool degrade_to_fuzz = false;

    /**
     * Endpoint pairs per formal::CoverBatch suite. All fault
     * configurations of a pair-batch are solved as one suite against a
     * multi-cone shadow bank: the shared module logic is unrolled once
     * per frame for the whole batch instead of once per configuration.
     * Covered/Unreachable verdicts, frames and traces do not depend
     * on this value; budgets are pooled per batch, so which configs
     * time out can.
     */
    size_t batch_pairs = 8;
};

enum class PairStatus { Success, Unreachable, Timeout, ConversionFailed };

const char *pair_status_name(PairStatus s);

/** Result of one failure-model configuration (one C / edge choice). */
struct ConfigOutcome
{
    FailureModelSpec spec;
    std::string name;
    /** True when the fuzzing engine produced the trace. */
    bool fuzzed = false;
    formal::BmcStatus bmc = formal::BmcStatus::Timeout;
    bool proven_by_induction = false;
    int frames = 0;
    uint64_t conflicts = 0;
    bool converted = false;
    bool validated = false;
    std::string failure_reason;

    // Retry-with-degradation bookkeeping.
    /** Formal attempts spent (1 = no retry; 0 = formal never ran). */
    int attempts = 1;
    /** Trace came from the Timeout-triggered fuzz fallback. */
    bool degraded_to_fuzz = false;
    /** Whole ladder (retries, then fallback if enabled) came up empty. */
    bool exhausted = false;
    /** Set when exhausted: code Exhausted with the ladder's history. */
    VegaError error;
};

struct PairResult
{
    sta::EndpointPair pair;
    PairStatus status = PairStatus::Timeout;
    std::vector<ConfigOutcome> configs;
    /** Validated test cases (may be empty). */
    std::vector<runtime::TestCase> tests;
};

struct LiftResult
{
    std::vector<PairResult> pairs;
    size_t n_success = 0;
    size_t n_unreachable = 0;
    size_t n_timeout = 0;
    size_t n_conversion_failed = 0;

    /** All validated tests, suite order (Table 5's test cases). */
    std::vector<runtime::TestCase> suite() const;
    /** Total executed cycles of one suite pass (Table 5's cycles). */
    uint64_t suite_cycles() const;
};

/** Run Error Lifting over @p pairs of @p module. */
LiftResult run_error_lifting(const HwModule &module,
                             const std::vector<sta::EndpointPair> &pairs,
                             const LiftConfig &config);

/**
 * Replay a test's module-level stimulus on a (failing) netlist from
 * reset and report whether any software-observable output deviates from
 * the golden expectations. Used both for FC validation during lifting
 * and for the Table 6/7 quality evaluation.
 */
runtime::Detection replay_on_module(const runtime::TestCase &tc,
                                    const Netlist &netlist,
                                    bool has_random_input = false,
                                    uint64_t seed = 1);

} // namespace vega::lift
