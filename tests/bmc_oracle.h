/**
 * @file
 * Test-only BMC reference engine: the scratch deepening loop and the
 * standalone k-induction step queries that formal::CoverBatch (the one
 * engine in src/formal) is pinned against. Every byte-identity test of
 * CoverBatch and check_cover compares with check_cover_scratch(), so
 * the batch engine is checked against an independent implementation
 * rather than against itself.
 *
 * Witnesses go through the same fresh-instance bound-k query
 * (detail::solve_reset_bound) the batch engine uses, so traces are
 * comparable byte for byte; statuses, frames and the induction verdicts
 * come from this file's own loop.
 */
#pragma once

#include <algorithm>
#include <chrono>

#include "formal/bmc.h"
#include "formal/bmc_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::formal::oracle {

using sat::Lit;
using namespace detail;

/**
 * The k-induction step queries, standalone: prove `target` can never
 * rise, given that phase-1 bounded search already refuted every bound
 * <= opts.max_frames (the base case). Tries depths 2..min(
 * opts.kinduction_frames, opts.max_frames); returns the first depth
 * whose step query is UNSAT, or 0 when none is (or a budget ran out).
 * CoverBatch runs the same queries on its shared free-state instance.
 */
inline int
kinduction_prove(const Netlist &nl, NetId target, const BmcOptions &opts,
                 int64_t conflict_budget, double wall_remaining,
                 uint64_t &conflicts)
{
    int max_depth = std::min(opts.kinduction_frames, opts.max_frames);
    if (max_depth < 2)
        return 0;
    VEGA_SPAN("bmc.kinduction");
    static obs::Counter &proofs = obs::counter("bmc.kinduction_proofs");
    LoopDeadline deadline(wall_remaining);

    // Depth-k step query: from a free, shadow-consistent state, the
    // target stays low for frames 0..k-1 — can it rise at frame k?
    // UNSAT closes the induction: a first rise at time T >= max_frames
    // >= k would need this very window to be satisfiable, and phase 1
    // already refuted every rise before max_frames (the base case).
    // Depth 1 is skipped: the phase-2 free-state check subsumes it
    // (its clause target@0 ∨ target@1 is the k=1 window plus the
    // state itself).
    for (int k = 2; k <= max_depth; ++k) {
        Unroller unroll(nl, /*free_initial=*/true, opts.state_equalities);
        unroll.set_assumes(opts.assumes);
        unroll.ensure_frames(k + 1);
        auto &solver = unroll.solver();
        for (int j = 0; j < k; ++j)
            solver.add_clause(Lit(unroll.var(j, target), true));
        solver.add_clause(Lit(unroll.var(k, target), false));

        sat::SolveLimits limits;
        limits.conflict_budget = conflict_budget;
        limits.wall_seconds = deadline.remaining();
        auto res = solver.solve(limits);
        conflicts += solver.num_conflicts();
        if (res == sat::Solver::Result::Unsat) {
            proofs.inc();
            return k;
        }
        if (res == sat::Solver::Result::Unknown)
            return 0; // starve out: fall back to the bounded verdict
    }
    return 0;
}

/**
 * Scratch deepening loop: a fresh Unroller + solver per bound, phase 2
 * on a fresh free-state instance, then kinduction_prove(). Shares no
 * deepening state with CoverBatch, which is what makes it an oracle.
 */
inline BmcResult
check_cover_scratch(const Netlist &nl, NetId target, const BmcOptions &opts)
{
    VEGA_SPAN("bmc.check_cover");
    const auto wall0 = std::chrono::steady_clock::now();
    LoopDeadline deadline(opts.wall_budget_seconds);
    BmcResult result;
    result.conflicts = 0;

    // Phase 1: bounded search from reset, shortest trace first.
    {
        VEGA_SPAN("bmc.deepen");
        for (int k = 1; k <= opts.max_frames; ++k) {
            VEGA_SPAN("bmc.frame");
            auto res = solve_reset_bound(nl, target, opts, k,
                                         opts.conflict_budget,
                                         deadline.remaining(),
                                         result.conflicts, &result.trace);
            if (res == sat::Solver::Result::Sat) {
                result.status = BmcStatus::Covered;
                result.frames = k;
                result.wall_seconds = seconds_since(wall0);
                count_outcome(result.status);
                return result;
            }
            if (res == sat::Solver::Result::Unknown) {
                result.status = BmcStatus::Timeout;
                result.frames = k;
                result.wall_seconds = seconds_since(wall0);
                count_outcome(result.status);
                return result;
            }
        }
    }

    // Phase 2: unreachability. From an arbitrary state whose shadow
    // registers agree with their originals, can one more cycle raise the
    // target? UNSAT generalizes over every reachable state (the shadow
    // invariant holds on all of them), proving the cover unreachable.
    {
        VEGA_SPAN("bmc.unreachability");
        Unroller unroll(nl, /*free_initial=*/true, opts.state_equalities);
        unroll.set_assumes(opts.assumes);
        unroll.ensure_frames(2);
        auto &solver = unroll.solver();
        solver.add_clause(Lit(unroll.var(0, target), false),
                          Lit(unroll.var(1, target), false));

        sat::SolveLimits limits;
        limits.conflict_budget = opts.conflict_budget;
        limits.wall_seconds = deadline.remaining();
        auto res = solver.solve(limits);
        result.conflicts += solver.num_conflicts();
        if (res == sat::Solver::Result::Unsat) {
            result.status = BmcStatus::Unreachable;
            result.proven_by_induction = true;
            result.wall_seconds = seconds_since(wall0);
            count_outcome(result.status);
            return result;
        }
        if (res == sat::Solver::Result::Unknown) {
            result.status = BmcStatus::Timeout;
            result.wall_seconds = seconds_since(wall0);
            count_outcome(result.status);
            return result;
        }
    }

    // Phase 3: the k-induction post-pass, when enabled — deeper step
    // queries can close proofs the 1-step check cannot.
    if (int depth = kinduction_prove(nl, target, opts,
                                     opts.conflict_budget,
                                     deadline.remaining(),
                                     result.conflicts)) {
        result.status = BmcStatus::Unreachable;
        result.proven_by_induction = true;
        result.kinduction_depth = depth;
        result.wall_seconds = seconds_since(wall0);
        count_outcome(result.status);
        return result;
    }

    // Free-state check is satisfiable but bounded search from reset found
    // nothing: for these feed-forward pipelines (state fully refreshed
    // every `latency` cycles) the bound is exhaustive, so report
    // unreachable, flagged as a bounded proof.
    result.status = BmcStatus::Unreachable;
    result.proven_by_induction = false;
    result.frames = opts.max_frames;
    result.wall_seconds = seconds_since(wall0);
    count_outcome(result.status);
    return result;
}

} // namespace vega::formal::oracle
