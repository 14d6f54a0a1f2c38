/**
 * @file
 * Simulation-core throughput: how much the EvalTape refactor buys.
 *
 * Three engines run the same stimulus on the real ALU32 and FPU32
 * netlists:
 *
 *  - "scalar": a verbatim replica of the pre-tape Simulator (per-eval
 *    topo_order() walk over AoS Cell structs), the refactor baseline;
 *  - "tape":   today's 1-lane Simulator interpreting the compiled
 *    instruction stream;
 *  - "batch":  the 64-lane BatchSimulator, scored in lane-cycles/sec
 *    (steps/sec x 64) since each step advances 64 simulations.
 *
 * Before timing, all three are spot-checked in lockstep so a speedup
 * can never come from computing the wrong values.
 *
 * A fourth row times the wave campaign's engine, BatchNetlistEngine, on
 * an ALU32 fault bank (8 liftable pairs x {0,1}, one fault per lane):
 * commit rounds/sec under a random op/idle stream, and the tape settles
 * (evals) and clock edges each round costs. It is checked first against
 * the golden ALU with every fault disabled.
 *
 * Results land in BENCH_sim.json in the working directory; `--smoke`
 * shrinks the time budget for CI (numbers get noisy, schema and
 * lockstep checks do not).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "cpu/batch_backend.h"
#include "lift/failure_model.h"
#include "obs/metrics.h"
#include "sim/batch_sim.h"
#include "sim/simulator.h"

using namespace vega;

namespace {

/**
 * The pre-refactor Simulator, kept alive here as the bench baseline:
 * this is the exact eval/step loop (including the dirty-flag
 * short-circuit) that shipped before the tape existed.
 */
struct LegacySim
{
    const Netlist &nl;
    std::vector<uint8_t> values;
    bool dirty = true;

    explicit LegacySim(const Netlist &n) : nl(n), values(n.num_nets(), 0)
    {
        for (CellId c : nl.dffs())
            values[nl.cell(c).out] = nl.cell(c).init ? 1 : 0;
        eval();
    }

    void set_input(NetId net, bool v)
    {
        values[net] = v ? 1 : 0;
        dirty = true;
    }

    void eval()
    {
        if (!dirty)
            return;
        for (CellId c : nl.topo_order()) {
            const Cell &cell = nl.cell(c);
            bool a = cell.num_inputs() > 0 ? values[cell.in[0]] : false;
            bool b = cell.num_inputs() > 1 ? values[cell.in[1]] : false;
            bool s = cell.num_inputs() > 2 ? values[cell.in[2]] : false;
            values[cell.out] = eval_cell(cell.type, a, b, s) ? 1 : 0;
        }
        dirty = false;
    }

    void step()
    {
        eval();
        auto dffs = nl.dffs();
        std::vector<uint8_t> next;
        next.reserve(dffs.size());
        for (CellId c : dffs)
            next.push_back(values[nl.cell(c).in[0]]);
        for (size_t i = 0; i < dffs.size(); ++i)
            values[nl.cell(dffs[i]).out] = next[i];
        dirty = true;
        eval();
    }
};

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/**
 * Steps/sec of @p step_fn: warm up, then run in chunks until the time
 * budget is spent. @p drive_fn flips an input each chunk so the
 * dirty-flag path never lets an engine coast on a settled state.
 */
template <typename StepFn, typename DriveFn>
double
measure_steps_per_sec(StepFn &&step_fn, DriveFn &&drive_fn,
                      double budget_sec)
{
    const int kChunk = 16;
    for (int i = 0; i < kChunk; ++i)
        step_fn();
    uint64_t steps = 0;
    bool flip = false;
    double start = now_seconds(), elapsed = 0.0;
    do {
        drive_fn(flip);
        flip = !flip;
        for (int i = 0; i < kChunk; ++i)
            step_fn();
        steps += kChunk;
        elapsed = now_seconds() - start;
    } while (elapsed < budget_sec);
    return steps / elapsed;
}

/**
 * Drive all three engines with identical random stimulus for a few
 * cycles and demand bit-identical nets. Dies loudly on mismatch: a
 * throughput number for a wrong simulator is worse than no number.
 */
bool
lockstep_check(const Netlist &nl, LegacySim &legacy, Simulator &tape,
               BatchSimulator &batch, uint64_t seed)
{
    Rng stim(seed);
    auto inputs = nl.primary_inputs();
    for (int t = 0; t < 8; ++t) {
        for (NetId in : inputs) {
            uint64_t plane = stim.next();
            legacy.set_input(in, plane & 1);
            tape.set_input(in, plane & 1);
            batch.set_input(in, plane);
        }
        legacy.eval();
        for (NetId n = 0; n < nl.num_nets(); ++n) {
            bool l = legacy.values[n];
            bool s = tape.value(n);
            bool b0 = (batch.value(n) >> 0) & 1;
            if (l != s || l != b0) {
                std::printf("LOCKSTEP MISMATCH net %s cycle %d: "
                            "legacy=%d tape=%d batch[0]=%d\n",
                            nl.net(n).name.c_str(), t, int(l), int(s),
                            int(b0));
                return false;
            }
        }
        legacy.step();
        tape.step();
        batch.step();
    }
    return true;
}

struct ModuleResult
{
    std::string name;
    size_t cells = 0, nets = 0, instrs = 0, runs = 0;
    double scalar_cps = 0, tape_cps = 0, batch_cps = 0;

    double tape_speedup() const { return tape_cps / scalar_cps; }
    double batch_speedup() const { return batch_cps / scalar_cps; }
};

ModuleResult
bench_module(const std::string &name, const Netlist &nl,
             double budget_sec)
{
    ModuleResult r;
    r.name = name;
    r.cells = nl.num_cells();
    r.nets = nl.num_nets();

    auto tape = std::make_shared<const EvalTape>(nl);
    r.instrs = tape->num_instrs();
    r.runs = tape->runs().size();

    LegacySim legacy(nl);
    Simulator scalar_tape(tape);
    BatchSimulator batch(tape);
    if (!lockstep_check(nl, legacy, scalar_tape, batch, 0x5eed))
        std::exit(1);

    auto inputs = nl.primary_inputs();
    NetId flip_net = inputs.empty() ? kInvalidId : inputs.front();

    r.scalar_cps = measure_steps_per_sec(
        [&] { legacy.step(); },
        [&](bool f) {
            if (flip_net != kInvalidId)
                legacy.set_input(flip_net, f);
        },
        budget_sec);
    r.tape_cps = measure_steps_per_sec(
        [&] { scalar_tape.step(); },
        [&](bool f) {
            if (flip_net != kInvalidId)
                scalar_tape.set_input(flip_net, f);
        },
        budget_sec);
    // Each batch step advances 64 independent simulations: score it in
    // lane-cycles/sec so all three columns share a unit.
    r.batch_cps = BatchSimulator::kLanes *
                  measure_steps_per_sec(
                      [&] { batch.step(); },
                      [&](bool f) {
                          if (flip_net != kInvalidId)
                              batch.set_input(flip_net,
                                              f ? ~uint64_t(0) : 0);
                      },
                      budget_sec);

    std::printf("%-6s | %6zu cells | %6zu instrs | %11.0f | %11.0f "
                "(%5.2fx) | %12.0f (%6.2fx)\n",
                name.c_str(), r.cells, r.instrs, r.scalar_cps, r.tape_cps,
                r.tape_speedup(), r.batch_cps, r.batch_speedup());
    return r;
}

struct EngineResult
{
    size_t faults = 0, instrs = 0, runs = 0;
    double rounds_per_sec = 0;
    double evals_per_round = 0;
    double edges_per_round = 0;
};

/**
 * Post one round of a random op/idle stream (three ops to one idle) in
 * every lane; returns the mask of Op lanes and records their operands.
 */
uint64_t
post_random_round(cpu::BatchNetlistEngine &eng, Rng &stim,
                  std::vector<uint32_t> &want)
{
    uint64_t ops = 0;
    for (int l = 0; l < cpu::BatchNetlistEngine::kLanes; ++l) {
        uint64_t r = stim.next();
        if ((r & 3) == 0) {
            eng.post_idle(l);
            continue;
        }
        auto op = AluOp((r >> 2) % kNumAluOps);
        uint32_t a = uint32_t(r >> 32), b = uint32_t(stim.next());
        eng.post_op(l, uint8_t(op), a, b);
        want[size_t(l)] = alu_compute(op, a, b);
        ops |= uint64_t(1) << l;
    }
    return ops;
}

EngineResult
bench_engine(double budget_sec)
{
    bench::AnalyzedModule m = bench::analyze(ModuleKind::Alu32);
    std::vector<lift::FailureModelSpec> specs;
    for (const sta::EndpointPair &p : m.aging.liftable_pairs()) {
        if (specs.size() >= 16)
            break;
        for (lift::FaultConstant c :
             {lift::FaultConstant::Zero, lift::FaultConstant::One}) {
            lift::FailureModelSpec fm;
            fm.launch = p.launch;
            fm.capture = p.capture;
            fm.is_setup = p.is_setup;
            fm.constant = c;
            specs.push_back(fm);
        }
    }
    lift::FaultBank bank = lift::build_fault_bank(m.module.netlist, specs);
    auto tape = std::make_shared<const EvalTape>(bank.netlist);

    EngineResult r;
    r.faults = bank.num_faults;
    r.instrs = tape->num_instrs();
    r.runs = tape->runs().size();
    const int lanes = cpu::BatchNetlistEngine::kLanes;
    std::vector<uint32_t> want(lanes);

    // Every fault disabled: each lane is a healthy ALU, so every Op
    // result must match the golden model.
    {
        cpu::BatchNetlistEngine eng(ModuleKind::Alu32, tape);
        Rng stim(0x5eed);
        for (int t = 0; t < 64; ++t) {
            uint64_t ops = post_random_round(eng, stim, want);
            eng.commit_round();
            for (int l = 0; l < lanes; ++l)
                if (((ops >> l) & 1) &&
                    eng.result(l).value != want[size_t(l)]) {
                    std::printf("ENGINE MISMATCH round %d lane %d: "
                                "got %08x want %08x\n",
                                t, l, eng.result(l).value,
                                want[size_t(l)]);
                    std::exit(1);
                }
        }
    }

    cpu::BatchNetlistEngine eng(ModuleKind::Alu32, tape);
    for (int l = 0; l < lanes; ++l) {
        BitVec en(bank.num_faults);
        en.set(size_t(l) % bank.num_faults, true);
        eng.set_lane_bus("fm_en", l, en);
    }
    Rng stim(0xfa17);
    obs::Counter &evals = obs::counter("sim.batch_evals");
    obs::Counter &edges = obs::counter("sim.batch_cycles");
    uint64_t evals0 = evals.value(), edges0 = edges.value();
    uint64_t rounds = 0;
    double start = now_seconds(), elapsed = 0.0;
    do {
        for (int i = 0; i < 64; ++i) {
            post_random_round(eng, stim, want);
            eng.commit_round();
        }
        rounds += 64;
        elapsed = now_seconds() - start;
    } while (elapsed < budget_sec);
    r.rounds_per_sec = rounds / elapsed;
    r.evals_per_round = double(evals.value() - evals0) / rounds;
    r.edges_per_round = double(edges.value() - edges0) / rounds;

    std::printf("engine | alu32 bank, %zu faults | %6zu instrs | "
                "%.0f rounds/s (%.0f lane-rounds/s) | %.3f evals, "
                "%.3f edges per round\n",
                r.faults, r.instrs, r.rounds_per_sec,
                lanes * r.rounds_per_sec, r.evals_per_round,
                r.edges_per_round);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    // Long enough per engine that chunked timing converges; smoke mode
    // only proves the bench runs and the JSON is well-formed.
    const double budget = smoke ? 0.02 : 1.0;

    bench::banner(std::string("Simulator throughput: pre-tape scalar vs "
                              "tape vs 64-lane batch") +
                  (smoke ? " [smoke]" : ""));
    std::printf("%-6s | %12s | %13s | %11s | %20s | %22s\n", "module",
                "size", "tape", "scalar c/s", "tape c/s", "batch lane-c/s");

    HwModule alu = rtl::make_alu32();
    HwModule fpu = rtl::make_fpu32();
    std::vector<ModuleResult> results;
    results.push_back(bench_module("alu32", alu.netlist, budget));
    results.push_back(bench_module("fpu32", fpu.netlist, budget));
    EngineResult engine = bench_engine(budget);

    std::string json = "{\"sim_throughput\":{\"smoke\":";
    json += smoke ? "true" : "false";
    json += ",\"lanes\":64,\"modules\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        const ModuleResult &r = results[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "%s{\"module\":\"%s\",\"cells\":%zu,\"nets\":%zu,"
                      "\"tape_instrs\":%zu,\"tape_runs\":%zu,"
                      "\"scalar_cps\":%.0f,"
                      "\"tape_cps\":%.0f,\"batch_lane_cps\":%.0f,"
                      "\"tape_speedup\":%.3f,\"batch_speedup\":%.3f}",
                      i ? "," : "", r.name.c_str(), r.cells, r.nets,
                      r.instrs, r.runs, r.scalar_cps, r.tape_cps, r.batch_cps,
                      r.tape_speedup(), r.batch_speedup());
        json += buf;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "],\"engine\":{\"module\":\"alu32_fault_bank\","
                  "\"faults\":%zu,\"tape_instrs\":%zu,\"tape_runs\":%zu,"
                  "\"rounds_per_s\":%.0f,\"lane_rounds_per_s\":%.0f,"
                  "\"evals_per_round\":%.3f,\"edges_per_round\":%.3f,"
                  "\"evals_per_edge\":%.3f}}}",
                  engine.faults, engine.instrs, engine.runs,
                  engine.rounds_per_sec,
                  BatchSimulator::kLanes * engine.rounds_per_sec,
                  engine.evals_per_round, engine.edges_per_round,
                  engine.evals_per_round / engine.edges_per_round);
    json += buf;
    bench::write_bench_json("sim", smoke, json);
    return 0;
}
