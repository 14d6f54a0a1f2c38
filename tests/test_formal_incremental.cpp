/**
 * @file
 * check_cover (a one-target CoverBatch) against the scratch reference
 * loop of tests/bmc_oracle.h: on the lift corpus (aged-STA endpoint
 * pairs of the ALU32 and FPU32, shadow-instrumented exactly as
 * run_error_lifting does), both must return bit-identical results —
 * same BmcStatus, frame counts, and extracted Waveforms — plus
 * budget-escalation resume, settled replay, and the obs counters.
 */
#include <gtest/gtest.h>

#include "aging/timing_library.h"
#include "bmc_oracle.h"
#include "formal/bmc.h"
#include "formal/cover_batch.h"
#include "lift/failure_model.h"
#include "lift/instruction_builder.h"
#include "netlist/builder.h"
#include "obs/metrics.h"
#include "rtl/alu32.h"
#include "rtl/blocks.h"
#include "rtl/fpu32.h"
#include "sim/simulator.h"
#include "sim/sp_profiler.h"
#include "sta/sta.h"

namespace vega::formal {
namespace {

using aging::AgingTimingLibrary;
using aging::RdModelParams;

const AgingTimingLibrary &
lib()
{
    static AgingTimingLibrary l = AgingTimingLibrary::build(RdModelParams{});
    return l;
}

/** A module aged to yield real violating pairs (the test_lift recipe:
 *  tight calibration, parked-input worst-case SP, 10 years). */
struct Corpus
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
};

Corpus
build_corpus(ModuleKind kind)
{
    Corpus c;
    c.module = kind == ModuleKind::Alu32 ? rtl::make_alu32()
                                         : rtl::make_fpu32();
    sta::calibrate_timing_scale(c.module, lib(), 0.99);
    Simulator sim(c.module.netlist);
    SpProfile profile =
        profile_signal_probability(sim, 64, [](Simulator &, uint64_t) {});
    sta::AgedTiming aged =
        sta::compute_aged_timing(c.module, profile, lib(), 10.0);
    c.pairs = sta::run_sta(c.module, aged).pairs;
    return c;
}

const Corpus &
corpus(ModuleKind kind)
{
    static Corpus alu = build_corpus(ModuleKind::Alu32);
    static Corpus fpu = build_corpus(ModuleKind::Fpu32);
    return kind == ModuleKind::Alu32 ? alu : fpu;
}

void
expect_identical(const BmcResult &got, const BmcResult &scr,
                 const Netlist &nl, const std::string &label)
{
    EXPECT_EQ(got.status, scr.status) << label;
    EXPECT_EQ(got.frames, scr.frames) << label;
    EXPECT_EQ(got.proven_by_induction, scr.proven_by_induction) << label;
    ASSERT_EQ(got.trace.num_cycles(), scr.trace.num_cycles()) << label;
    auto compare_bus = [&](const std::string &bus) {
        for (size_t f = 0; f < got.trace.num_cycles(); ++f)
            EXPECT_TRUE(got.trace.at(bus, f) == scr.trace.at(bus, f))
                << label << " bus " << bus << " cycle " << f;
    };
    for (const auto &bus : nl.input_bus_names())
        compare_bus(bus);
    for (const auto &bus : nl.output_bus_names())
        compare_bus(bus);
}

/** Run check_cover and the scratch oracle on every (pair,
 *  fault-constant) configuration of the corpus — the exact instances
 *  run_error_lifting submits. */
void
run_side_by_side(ModuleKind kind, size_t max_pairs)
{
    const Corpus &c = corpus(kind);
    size_t tested = 0;
    for (const sta::EndpointPair &pair : c.pairs) {
        if (pair.launch == kInvalidId)
            continue;
        for (lift::FaultConstant fc :
             {lift::FaultConstant::Zero, lift::FaultConstant::One}) {
            lift::FailureModelSpec spec;
            spec.launch = pair.launch;
            spec.capture = pair.capture;
            spec.is_setup = pair.is_setup;
            spec.constant = fc;
            lift::ShadowInstrumentation shadow =
                lift::build_shadow_instrumentation(c.module.netlist, spec);

            BmcOptions opts;
            opts.max_frames = 4;
            opts.conflict_budget = 400000;
            opts.assumes = lift::build_assumes(shadow.netlist, kind);
            opts.state_equalities = shadow.state_pairs;

            BmcResult scr = oracle::check_cover_scratch(
                shadow.netlist, shadow.mismatch, opts);
            BmcResult got = check_cover(shadow.netlist, shadow.mismatch,
                                        opts);

            std::string label = std::string(kind == ModuleKind::Alu32
                                                ? "alu32"
                                                : "fpu32") +
                                " pair " + std::to_string(tested) +
                                " const " +
                                lift::fault_constant_name(fc);
            expect_identical(got, scr, shadow.netlist, label);
        }
        if (++tested >= max_pairs)
            break;
    }
    EXPECT_GT(tested, 0u) << "corpus produced no liftable pairs";
}

TEST(FormalIncremental, Alu32EnginesBitIdentical)
{
    run_side_by_side(ModuleKind::Alu32, 3);
}

TEST(FormalIncremental, Fpu32EnginesBitIdentical)
{
    run_side_by_side(ModuleKind::Fpu32, 2);
}

/** The test_bmc multiplier cover: a * b == 143 at bound 4, needing
 *  real search — good for exercising resume and counters. */
Netlist
make_mul_cover(NetId *target_out)
{
    Netlist nl("mul");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 4);
    auto bb = nl.add_input_bus("b", 4);
    Bus aq, bq;
    for (int i = 0; i < 4; ++i) {
        aq.push_back(b.dff(a[size_t(i)]));
        bq.push_back(b.dff(bb[size_t(i)]));
    }
    Bus p = rtl::multiply(b, aq, bq);
    *target_out = rtl::bus_eq(b, p, b.const_bus(8, 143));
    nl.add_output_bus("p", p);
    return nl;
}

TEST(FormalIncremental, EscalationResumesInsteadOfRestarting)
{
    // A starved first rung, then budgets x4 per rung until settled: the
    // one-target batch must converge to the same answer as a one-shot
    // check_cover, resuming its timed-out bound on every rung (the lift
    // escalation ladder's protocol) rather than re-solving from scratch.
    NetId target;
    Netlist nl = make_mul_cover(&target);

    BmcOptions generous;
    generous.max_frames = 4;
    BmcResult oneshot = check_cover(nl, target, generous);
    ASSERT_EQ(oneshot.status, BmcStatus::Covered);

    CoverBatch batch(nl, generous);
    CoverTargetSpec spec;
    spec.target = target;
    int idx = batch.add_target(std::move(spec));
    int rungs = 0;
    for (int64_t budget = 1; !batch.settled(idx) && rungs < 30;
         budget *= 4) {
        batch.run(budget, /*wall_budget_seconds=*/-1.0);
        ++rungs;
    }
    EXPECT_GT(rungs, 1);
    const BmcResult &esc = batch.result(idx);
    ASSERT_EQ(esc.status, BmcStatus::Covered);
    EXPECT_EQ(esc.frames, oneshot.frames);
    for (const auto &bus : {"a", "b", "p"})
        for (size_t f = 0; f < esc.trace.num_cycles(); ++f)
            EXPECT_TRUE(esc.trace.at(bus, f) == oneshot.trace.at(bus, f))
                << bus << " cycle " << f;
}

TEST(FormalIncremental, SettledSessionReplaysResult)
{
    NetId target;
    Netlist nl = make_mul_cover(&target);
    BmcOptions opts;
    opts.max_frames = 4;
    CoverBatch batch(nl, opts);
    CoverTargetSpec spec;
    spec.target = target;
    int idx = batch.add_target(std::move(spec));
    batch.run();
    BmcResult first = batch.result(idx);
    ASSERT_EQ(first.status, BmcStatus::Covered);
    EXPECT_TRUE(batch.settled(idx));
    batch.run();
    const BmcResult &again = batch.result(idx);
    EXPECT_EQ(again.status, first.status);
    EXPECT_EQ(again.frames, first.frames);
    EXPECT_EQ(again.conflicts, 0u); // replay does no solving
}

TEST(FormalIncremental, IncrementalCountersAdvance)
{
    uint64_t assume0 = obs::counter("sat.assumption_solves").value();

    NetId target;
    Netlist nl = make_mul_cover(&target);
    BmcOptions opts;
    opts.max_frames = 4;
    BmcResult r = check_cover(nl, target, opts);
    ASSERT_EQ(r.status, BmcStatus::Covered);
    // Registered inputs: p first reflects chosen operands at frame 1,
    // so the shortest cover is the 2-frame trace.
    EXPECT_EQ(r.frames, 2);

    // Bound 1 (fresh) and bound 2 (reusing the 1-frame prefix) are two
    // assumption queries on the one persistent instance.
    EXPECT_GE(obs::counter("sat.assumption_solves").value() - assume0,
              2u);
}

} // namespace
} // namespace vega::formal
