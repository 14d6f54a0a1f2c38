/**
 * @file
 * Lockstep contract of wave execution: a campaign run in 64-episode
 * waves over a fault-bank tape must be byte-identical — the full
 * deterministic CampaignReport JSON — to the scalar per-job reference
 * (campaign_oracle.h), at every thread count, on every module family.
 * Plus unit checks of the two properties the contract rests on:
 * disabled fault-bank muxes are exact pass-throughs, and wave
 * characterization reproduces scalar workload_corrupts() verdict for
 * verdict. The byte-identity also
 * covers RandomInput faults (per-lane fm_rand streams) and an FPU
 * hold-fault bank (an input that feeds logic), and a guard pins the
 * engine's cost: one tape settle per ALU round.
 */
#include "campaign/wave.h"

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign_oracle.h"
#include "campaign/engine.h"
#include "cpu/alu_ops.h"
#include "cpu/softfp.h"
#include "lift/failure_model.h"
#include "obs/metrics.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "vega/workflow.h"

namespace vega::campaign {
namespace {

struct WaveEnv
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
    /** Every liftable hold pair of the aged module. */
    std::vector<sta::EndpointPair> hold_pairs;
    std::vector<runtime::TestCase> suite;
};

/** Liftable pairs of @p aged: the first @p n, plus every hold pair. */
void
take_pairs(WaveEnv &env, const AgingAnalysisResult &aged, size_t n)
{
    for (const sta::EndpointPair &p : aged.liftable_pairs())
        if (!p.is_setup)
            env.hold_pairs.push_back(p);
    env.pairs = aged.liftable_pairs();
    if (env.pairs.size() > n)
        env.pairs.resize(n);
}

runtime::TestCase
alu_test(const char *name, AluOp op, uint32_t a, uint32_t b, int pair)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Alu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    tc.checks = {{0, alu_compute(op, a, b), false}};
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

runtime::TestCase
fpu_test(const char *name, fp::FpuOp op, uint32_t a, uint32_t b, int pair,
         bool check_flags)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Fpu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    fp::FpResult r = fp::fpu_compute(op, a, b);
    bool to_xreg = op == fp::FpuOp::Eq || op == fp::FpuOp::Lt ||
                   op == fp::FpuOp::Le;
    tc.checks = {{0, r.bits, to_xreg}};
    if (check_flags) {
        tc.check_final_flags = true;
        tc.expected_flags = r.flags;
    }
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

const WaveEnv &
alu_env()
{
    static WaveEnv *e = [] {
        auto *env = new WaveEnv;
        env->module = rtl::make_alu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged =
            run_aging_analysis(env->module, lib, minver_trace(), cfg);
        take_pairs(*env, aged, 2);
        env->suite = {
            alu_test("c0", AluOp::Add, 0xffffffff, 1, 0),
            alu_test("c1", AluOp::Sub, 0, 1, 0),
            alu_test("c2", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
            alu_test("c3", AluOp::Sll, 1, 31, 1),
        };
        return env;
    }();
    return *e;
}

const WaveEnv &
fpu_env()
{
    static WaveEnv *e = [] {
        auto *env = new WaveEnv;
        env->module = rtl::make_fpu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged =
            run_aging_analysis(env->module, lib, minver_trace(), cfg);
        take_pairs(*env, aged, 2);
        // The synthetic screen covers every wave transaction kind: ops
        // writing f-regs, a compare writing an x-reg, and an fflags
        // check (csrr/csrw fflags through the split protocol).
        env->suite = {
            fpu_test("f0", fp::FpuOp::Add, 0x3f800000, 0x3f800000, 0,
                     false),
            fpu_test("f1", fp::FpuOp::Mul, 0x40490fdb, 0x3eaaaaab, 0,
                     true),
            fpu_test("f2", fp::FpuOp::Lt, 0xbf800000, 0x3f800000, 1,
                     false),
            fpu_test("f3", fp::FpuOp::Sub, 0x7f7fffff, 0xff7fffff, 1,
                     true),
        };
        return env;
    }();
    return *e;
}

CampaignConfig
base_config(uint64_t seed, size_t threads)
{
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.num_jobs = 18;
    cfg.threads = threads;
    cfg.max_slots = 6;
    return cfg;
}

std::vector<lift::FailureModelSpec>
bank_specs(const std::vector<sta::EndpointPair> &pairs,
           const std::vector<lift::FaultConstant> &constants)
{
    std::vector<lift::FailureModelSpec> specs;
    for (const auto &pair : pairs)
        for (lift::FaultConstant c : constants)
            specs.push_back(lift::fault_spec(pair, c));
    return specs;
}

/** Diff the executor's report against the scalar reference's; returns
 *  the executor's. */
CampaignReport
expect_matches_oracle(const WaveEnv &e,
                      const std::vector<sta::EndpointPair> &pairs,
                      const CampaignConfig &cfg)
{
    CampaignReport oracle =
        oracle::run_campaign_scalar(e.module, pairs, e.suite, cfg);
    CampaignReport wave = run_campaign(e.module, pairs, e.suite, cfg);
    EXPECT_EQ(oracle.to_json(false), wave.to_json(false))
        << "seed " << cfg.seed << " threads " << cfg.threads;
    return wave;
}

TEST(WaveCampaign, FaultBankDisabledLanesArePassThrough)
{
    const WaveEnv &e = alu_env();
    auto specs = bank_specs(
        e.pairs, {lift::FaultConstant::Zero, lift::FaultConstant::One});
    lift::FaultBank bank =
        lift::build_fault_bank(e.module.netlist, specs);
    EXPECT_EQ(bank.num_faults, specs.size());
    ASSERT_EQ(bank.fault_random.size(), specs.size());

    // With every enable low the bank must behave exactly like the
    // healthy module: the representative workload runs clean.
    auto tape = std::make_shared<const EvalTape>(bank.netlist);
    EXPECT_FALSE(workload_corrupts(e.module.kind, tape,
                                   bank.has_random_input, 1));
}

TEST(WaveCampaign, CharacterizeWaveMatchesScalarVerdicts)
{
    const WaveEnv &e = alu_env();
    std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero, lift::FaultConstant::One};
    auto specs = bank_specs(e.pairs, constants);
    lift::FaultBank bank =
        lift::build_fault_bank(e.module.netlist, specs);

    WaveContext ctx;
    ctx.kind = e.module.kind;
    ctx.tape = std::make_shared<const EvalTape>(bank.netlist);
    ctx.num_faults = bank.num_faults;
    ctx.fault_random = &bank.fault_random;
    ctx.suite = &e.suite;

    std::vector<std::pair<size_t, uint64_t>> req;
    std::vector<char> scalar(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        uint64_t seed = job_stream(~uint64_t(99), i);
        req.push_back({i, seed});
        lift::FailingNetlist f =
            lift::build_failing_netlist(e.module.netlist, specs[i]);
        scalar[i] = workload_corrupts(e.module.kind, f.netlist,
                                      f.has_random_input, seed);
    }
    std::vector<char> wave = characterize_wave(ctx, req);
    ASSERT_EQ(wave.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(int(wave[i]), int(scalar[i])) << "fault " << i;
}

TEST(WaveCampaign, AluReportsByteIdenticalAcrossModesAndThreads)
{
    const WaveEnv &e = alu_env();
    for (uint64_t seed : {99ull, 31ull}) {
        std::string golden =
            oracle::run_campaign_scalar(e.module, e.pairs, e.suite,
                                        base_config(seed, 1))
                .to_json(false);
        for (size_t threads : {1, 2, 4, 8}) {
            CampaignReport wave = run_campaign(
                e.module, e.pairs, e.suite, base_config(seed, threads));
            EXPECT_EQ(golden, wave.to_json(false))
                << "seed " << seed << " threads " << threads;
        }
    }
}

TEST(WaveCampaign, MultiWaveCampaignMatchesScalar)
{
    // More jobs than one 64-episode wave holds: exercises wave
    // bucketing and cross-wave result assembly.
    const WaveEnv &e = alu_env();
    CampaignConfig cfg = base_config(7, 2);
    cfg.num_jobs = kWaveLanes + 9;
    cfg.max_slots = 4;
    expect_matches_oracle(e, e.pairs, cfg);
}

TEST(WaveCampaign, FpuReportsByteIdenticalAcrossModes)
{
    const WaveEnv &e = fpu_env();
    CampaignConfig cfg = base_config(7, 2);
    cfg.num_jobs = 12;
    CampaignReport r = expect_matches_oracle(e, e.pairs, cfg);
    EXPECT_GT(r.detected + r.escapes + r.benign, 0u);
}

TEST(WaveCampaign, RandomConstantAluReportsByteIdentical)
{
    // RandomInput faults read the bank's fm_rand input, whose per-lane
    // draws the batch engine must replay exactly as each scalar
    // backend draws them — peeks included.
    const WaveEnv &e = alu_env();
    for (uint64_t seed : {5ull, 23ull}) {
        CampaignConfig cfg = base_config(seed, 2);
        cfg.constants = {lift::FaultConstant::Zero,
                         lift::FaultConstant::One,
                         lift::FaultConstant::RandomInput};
        expect_matches_oracle(e, e.pairs, cfg);
    }
}

TEST(WaveCampaign, RandomConstantFpuReportsByteIdentical)
{
    // One fault class: the scalar FPU reference characterizes each
    // class with a full representative-kernel run, seconds apiece.
    const WaveEnv &e = fpu_env();
    std::vector<sta::EndpointPair> pairs(e.pairs.begin(),
                                         e.pairs.begin() + 1);
    CampaignConfig cfg = base_config(13, 2);
    cfg.num_jobs = 12;
    cfg.constants = {lift::FaultConstant::RandomInput};
    expect_matches_oracle(e, pairs, cfg);
}

TEST(WaveCampaign, FpuHoldFaultReportsByteIdentical)
{
    // In a hold-fault bank the FPU's valid input reaches the fault
    // activation logic, so the engine's input-aware settle must
    // re-settle when valid changes.
    const WaveEnv &e = fpu_env();
    ASSERT_FALSE(e.hold_pairs.empty());
    auto specs = bank_specs(e.hold_pairs, {lift::FaultConstant::Zero});
    lift::FaultBank bank = lift::build_fault_bank(e.module.netlist, specs);
    EvalTape tape(bank.netlist);
    EXPECT_TRUE(tape.feeds_logic(tape.slot(bank.netlist.bus("valid")[0])));

    CampaignConfig cfg = base_config(3, 2);
    cfg.num_jobs = 12;
    cfg.constants = {lift::FaultConstant::Zero};
    expect_matches_oracle(e, e.hold_pairs, cfg);
}

TEST(WaveCampaign, CharacterizeWaveSettlesOncePerRound)
{
    // Output peeks read the output registers' D pins and the post-edge
    // settle is lazy, so an ALU round (whose operands feed only stage-1
    // registers) costs one tape pass: one settle per clock edge, plus
    // the reset settle. RandomInput lanes are included: the peek's
    // fm_rand draws must leave the next edge's settle reusable.
    const WaveEnv &e = alu_env();
    auto specs = bank_specs(
        e.pairs, {lift::FaultConstant::Zero, lift::FaultConstant::One,
                  lift::FaultConstant::RandomInput});
    lift::FaultBank bank = lift::build_fault_bank(e.module.netlist, specs);
    WaveContext ctx;
    ctx.kind = e.module.kind;
    ctx.tape = std::make_shared<const EvalTape>(bank.netlist);
    ctx.num_faults = bank.num_faults;
    ctx.fault_random = &bank.fault_random;
    std::vector<std::pair<size_t, uint64_t>> req;
    for (size_t i = 0; i < specs.size(); ++i)
        req.push_back({i, job_stream(7, i)});

    obs::Counter &evals = obs::counter("sim.batch_evals");
    obs::Counter &cycles = obs::counter("sim.batch_cycles");
    uint64_t evals0 = evals.value(), cycles0 = cycles.value();
    characterize_wave(ctx, req);
    uint64_t d_evals = evals.value() - evals0;
    uint64_t d_cycles = cycles.value() - cycles0;
    EXPECT_GT(d_cycles, 1000u);
    EXPECT_LE(d_evals, d_cycles + 1);
}

TEST(WaveCampaign, StopAfterJobsHonoredMidWave)
{
    // One wave holds all 18 jobs; the stop flag must still land after
    // ~5 completions, not at the wave boundary.
    const WaveEnv &e = alu_env();
    CampaignConfig cfg = base_config(99, 1);
    cfg.stop_after_jobs = 5;
    CampaignReport r = run_campaign(e.module, e.pairs, e.suite, cfg);
    EXPECT_GE(r.jobs.size(), 5u);
    EXPECT_LT(r.jobs.size(), 18u);
}

} // namespace
} // namespace vega::campaign
