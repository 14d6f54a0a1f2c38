#include "formal/bmc.h"

#include <chrono>

#include "formal/bmc_internal.h"
#include "formal/cover_batch.h"
#include "obs/metrics.h"

namespace vega::formal {

using sat::Lit;

const char *
bmc_status_name(BmcStatus status)
{
    switch (status) {
      case BmcStatus::Covered:     return "covered";
      case BmcStatus::Unreachable: return "unreachable";
      case BmcStatus::Timeout:     return "timeout";
    }
    return "?";
}

namespace detail {

/** Record all port buses of @p nl for frames [0, frames) into a Waveform. */
Waveform
extract_trace(const Netlist &nl, const Unroller &unroll, int frames)
{
    Waveform w;
    for (int f = 0; f < frames; ++f) {
        for (const auto &bus : nl.input_bus_names()) {
            const auto &nets = nl.bus(bus);
            BitVec v(nets.size());
            for (size_t i = 0; i < nets.size(); ++i)
                v.set(i, unroll.value(f, nets[i]));
            w.record(bus, v);
        }
        for (const auto &bus : nl.output_bus_names()) {
            const auto &nets = nl.bus(bus);
            BitVec v(nets.size());
            for (size_t i = 0; i < nets.size(); ++i)
                v.set(i, unroll.value(f, nets[i]));
            w.record(bus, v);
        }
    }
    return w;
}

/** Count one query outcome into the bmc.covered/unreachable/timeout
 *  counters at whatever point CoverBatch settles on it. */
void
count_outcome(BmcStatus status)
{
    static obs::Counter &covered = obs::counter("bmc.covered");
    static obs::Counter &unreachable = obs::counter("bmc.unreachable");
    static obs::Counter &timeouts = obs::counter("bmc.timeouts");
    switch (status) {
      case BmcStatus::Covered:     covered.inc(); break;
      case BmcStatus::Unreachable: unreachable.inc(); break;
      case BmcStatus::Timeout:     timeouts.inc(); break;
    }
}

/** Fresh-instance bound-@p k cover query from reset (see
 *  bmc_internal.h). */
sat::Solver::Result
solve_reset_bound(const Netlist &nl, NetId target, const BmcOptions &opts,
                  int k, int64_t conflict_budget, double wall_remaining,
                  uint64_t &conflicts, Waveform *trace_out)
{
    Unroller unroll(nl, /*free_initial=*/false);
    unroll.set_assumes(opts.assumes);
    unroll.ensure_frames(k);
    auto &solver = unroll.solver();
    solver.add_clause(Lit(unroll.var(k - 1, target), false));

    sat::SolveLimits limits;
    limits.conflict_budget = conflict_budget;
    limits.wall_seconds = wall_remaining;
    auto res = solver.solve(limits);
    conflicts += solver.num_conflicts();
    if (res == sat::Solver::Result::Sat && trace_out)
        *trace_out = extract_trace(nl, unroll, k);
    return res;
}

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace detail

BmcResult
check_cover(const Netlist &nl, NetId target, const BmcOptions &opts)
{
    CoverBatch batch(nl, opts);
    CoverTargetSpec spec;
    spec.target = target;
    spec.state_equalities = opts.state_equalities;
    int idx = batch.add_target(std::move(spec));
    batch.run();
    return batch.result(idx);
}

} // namespace vega::formal
