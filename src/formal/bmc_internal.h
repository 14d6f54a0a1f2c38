/**
 * @file
 * Helpers of the cover engine (cover_batch.cpp), defined in bmc.cpp.
 * Internal to src/formal — not part of the library interface.
 */
#pragma once

#include <chrono>

#include "formal/bmc.h"
#include "formal/unroller.h"

namespace vega::formal::detail {

/** Record all port buses of @p nl for frames [0, frames) into a Waveform. */
Waveform extract_trace(const Netlist &nl, const Unroller &unroll,
                       int frames);

/**
 * One loop-wide wall-clock deadline, shared by every SAT query of a
 * CoverBatch run: each query is handed only the
 * time remaining, so the whole loop — not each query — honours
 * wall_budget_seconds.
 */
class LoopDeadline
{
  public:
    explicit LoopDeadline(double seconds) : armed_(seconds >= 0.0)
    {
        if (armed_)
            end_ = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
    }

    /** Seconds left for the next query; -1 when no deadline is armed. */
    double remaining() const
    {
        if (!armed_)
            return -1.0;
        double left = std::chrono::duration<double>(end_ - Clock::now())
                          .count();
        return left > 0.0 ? left : 0.0;
    }

  private:
    using Clock = std::chrono::steady_clock;
    bool armed_;
    Clock::time_point end_;
};

/** Count one query outcome into the bmc.covered/unreachable/timeout
 *  counters at whatever point an engine settles on it. */
void count_outcome(BmcStatus status);

/**
 * Fresh-instance bound-@p k cover query from reset: CoverBatch's
 * witness derivation after a Sat answer. Satisfiability at a fixed
 * bound does not depend on batch shape or on how the deepening
 * instance got there, so deriving every trace through this one query
 * makes the extracted waveform a function of (netlist, target, k)
 * alone.
 */
sat::Solver::Result
solve_reset_bound(const Netlist &nl, NetId target, const BmcOptions &opts,
                  int k, int64_t conflict_budget, double wall_remaining,
                  uint64_t &conflicts, Waveform *trace_out);

/** Seconds elapsed since @p t0, for per-target wall attribution. */
double seconds_since(std::chrono::steady_clock::time_point t0);

} // namespace vega::formal::detail
