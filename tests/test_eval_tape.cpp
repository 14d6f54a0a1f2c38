/**
 * @file
 * The compiled-tape contract: a freshly lowered EvalTape must behave
 * exactly like the pre-tape levelized simulator (a reference
 * interpreter of topo_order() + eval_cell lives below), and every lane
 * of the 64-lane BatchSimulator must match an independent scalar run
 * in lockstep — on random sequential netlists and on the real
 * ALU32/FPU32 blocks. Save/restore round-trips and the batched
 * SpProfile popcount path are pinned here too.
 */
#include "sim/eval_tape.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "netlist/builder.h"
#include "obs/metrics.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "sim/batch_sim.h"
#include "sim/simulator.h"
#include "sim/sp_profiler.h"

namespace vega {
namespace {

/**
 * Random sequential netlist: a soup of gates over the inputs plus
 * DFF-driven feedback nets, so batches exercise state commit as well
 * as combinational settling.
 */
Netlist
random_netlist(uint64_t seed, size_t n_inputs, size_t n_cells,
               size_t n_ffs)
{
    Rng rng(seed);
    Netlist nl("rand" + std::to_string(seed));
    Builder b(nl);
    auto ins = nl.add_input_bus("a", n_inputs);
    std::vector<NetId> pool(ins.begin(), ins.end());

    std::vector<NetId> fb;
    for (size_t i = 0; i < n_ffs; ++i) {
        NetId q = nl.new_net("fb" + std::to_string(i));
        fb.push_back(q);
        pool.push_back(q);
    }

    for (size_t i = 0; i < n_cells; ++i) {
        NetId x = pool[rng.below(pool.size())];
        NetId y = pool[rng.below(pool.size())];
        NetId s = pool[rng.below(pool.size())];
        NetId o = kInvalidId;
        switch (rng.below(11)) {
          case 0: o = b.buf(x); break;
          case 1: o = b.not_(x); break;
          case 2: o = b.and_(x, y); break;
          case 3: o = b.or_(x, y); break;
          case 4: o = b.xor_(x, y); break;
          case 5: o = b.nand_(x, y); break;
          case 6: o = b.nor_(x, y); break;
          case 7: o = b.xnor_(x, y); break;
          case 8: o = b.mux(x, y, s); break;
          case 9: o = b.const0(); break;
          case 10: o = b.const1(); break;
        }
        pool.push_back(o);
    }

    for (size_t i = 0; i < n_ffs; ++i)
        nl.add_dff("ff" + std::to_string(i),
                   pool[rng.below(pool.size())], fb[i], rng.chance(0.5));

    Bus outs;
    for (size_t i = 0; i < 8 && i < pool.size(); ++i)
        outs.push_back(pool[pool.size() - 1 - i]);
    nl.add_output_bus("r", outs);
    return nl;
}

/**
 * Reference interpreter replicating the pre-tape Simulator loop
 * verbatim (per-cycle topo_order() walk over AoS cells): the
 * regression oracle the compiled tape must match bit-for-bit.
 */
struct ReferenceSim
{
    const Netlist &nl;
    std::vector<uint8_t> values;

    explicit ReferenceSim(const Netlist &n) : nl(n), values(n.num_nets(), 0)
    {
        reset();
    }

    void reset()
    {
        std::fill(values.begin(), values.end(), 0);
        for (CellId c : nl.dffs())
            values[nl.cell(c).out] = nl.cell(c).init ? 1 : 0;
        eval();
    }

    void eval()
    {
        for (CellId c : nl.topo_order()) {
            const Cell &cell = nl.cell(c);
            bool a = cell.num_inputs() > 0 ? values[cell.in[0]] : false;
            bool b = cell.num_inputs() > 1 ? values[cell.in[1]] : false;
            bool s = cell.num_inputs() > 2 ? values[cell.in[2]] : false;
            values[cell.out] = eval_cell(cell.type, a, b, s) ? 1 : 0;
        }
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
        eval();
    }
};

TEST(EvalTape, LowersEveryNetToExactlyOneSlot)
{
    Netlist nl = random_netlist(11, 8, 200, 6);
    EvalTape tape(nl);
    EXPECT_EQ(tape.num_slots(), nl.num_nets());
    std::vector<bool> seen(tape.num_slots(), false);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        SlotId s = tape.slot(n);
        ASSERT_LT(s, tape.num_slots());
        EXPECT_FALSE(seen[s]) << "slot " << s << " assigned twice";
        seen[s] = true;
    }
    // Constants are hoisted out of the per-cycle stream; everything
    // combinational and non-constant is in it, in some order.
    size_t n_comb = 0, n_const = 0, n_dff = 0;
    for (const Cell &c : nl.cells()) {
        if (c.type == CellType::Dff)
            ++n_dff;
        else if (c.type == CellType::Const0 || c.type == CellType::Const1)
            ++n_const;
        else
            ++n_comb;
    }
    EXPECT_EQ(tape.num_instrs(), n_comb);
    EXPECT_EQ(tape.const_rules().size(), n_const);
    EXPECT_EQ(tape.dff_rules().size(), n_dff);
}

/** Cell written by each instruction, via the contiguous output slots. */
std::vector<CellId>
instr_cells(const EvalTape &tape)
{
    const Netlist &nl = tape.netlist();
    std::vector<CellId> cells(tape.num_instrs(), kInvalidId);
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        SlotId s = tape.cell_out_slot(c);
        if (s >= tape.first_comb_slot())
            cells[s - tape.first_comb_slot()] = c;
    }
    return cells;
}

/** The netlists the layout invariants are checked on. */
std::vector<Netlist>
layout_corpus()
{
    std::vector<Netlist> nls;
    for (uint64_t seed : {11u, 12u, 13u})
        nls.push_back(random_netlist(seed, 8, 300, 6));
    nls.push_back(rtl::make_alu32().netlist);
    return nls;
}

TEST(EvalTape, RunsPartitionStreamByOpcode)
{
    for (const Netlist &nl : layout_corpus()) {
        EvalTape tape(nl);
        std::vector<CellId> cells = instr_cells(tape);
        const std::vector<SlotId> *pins[] = {&tape.in0(), &tape.in1(),
                                             &tape.in2()};
        ASSERT_FALSE(tape.runs().empty()) << nl.name();
        size_t begin = 0;
        for (size_t r = 0; r < tape.runs().size(); ++r) {
            const EvalTape::Run &run = tape.runs()[r];
            ASSERT_GT(run.end, begin) << nl.name() << " run " << r;
            if (r > 0) { // maximal: a run never continues the previous op
                EXPECT_NE(run.op, tape.runs()[r - 1].op)
                    << nl.name() << " run " << r;
            }
            for (size_t i = begin; i < run.end; ++i) {
                ASSERT_NE(cells[i], kInvalidId)
                    << nl.name() << " instr " << i;
                const Cell &cell = nl.cell(cells[i]);
                ASSERT_EQ(uint8_t(cell.type), run.op)
                    << nl.name() << " instr " << i;
                for (int k = 0; k < cell.num_inputs(); ++k)
                    EXPECT_EQ((*pins[k])[i], tape.slot(cell.in[k]))
                        << nl.name() << " instr " << i << " pin " << k;
            }
            begin = run.end;
        }
        EXPECT_EQ(begin, tape.num_instrs()) << nl.name();
    }
}

TEST(EvalTape, InstructionsReadOnlyLowerLevels)
{
    for (const Netlist &nl : layout_corpus()) {
        // Levels recomputed from the netlist: inputs, constants and
        // DFF Qs are 0, a combinational output 1 + its highest input.
        std::vector<uint32_t> level(nl.num_nets(), 0);
        for (CellId c : nl.topo_order()) {
            const Cell &cell = nl.cell(c);
            for (int k = 0; k < cell.num_inputs(); ++k)
                level[cell.out] =
                    std::max(level[cell.out], level[cell.in[k]] + 1);
        }
        EvalTape tape(nl);
        std::vector<CellId> cells = instr_cells(tape);
        const std::vector<SlotId> *pins[] = {&tape.in0(), &tape.in1(),
                                             &tape.in2()};
        uint32_t prev = 0;
        for (size_t i = 0; i < tape.num_instrs(); ++i) {
            const Cell &cell = nl.cell(cells[i]);
            uint32_t l = level[cell.out];
            EXPECT_GE(l, prev) << nl.name() << " instr " << i;
            prev = l;
            for (int k = 0; k < cell.num_inputs(); ++k) {
                SlotId s = (*pins[k])[i];
                if (s < tape.first_comb_slot())
                    continue; // input, constant or DFF Q: level 0
                const Cell &src = nl.cell(cells[s - tape.first_comb_slot()]);
                EXPECT_LT(level[src.out], l)
                    << nl.name() << " instr " << i << " pin " << k;
            }
        }
    }
}

TEST(EvalTape, OutputSlotsAreContiguous)
{
    for (const Netlist &nl : layout_corpus()) {
        EvalTape tape(nl);
        EXPECT_EQ(tape.first_comb_slot() + tape.num_instrs(),
                  tape.num_slots())
            << nl.name();
        size_t n_comb = 0;
        for (CellId c = 0; c < nl.num_cells(); ++c) {
            CellType t = nl.cell(c).type;
            bool comb = t != CellType::Dff && t != CellType::Const0 &&
                        t != CellType::Const1;
            n_comb += comb;
            EXPECT_EQ(tape.cell_out_slot(c) >= tape.first_comb_slot(), comb)
                << nl.name() << " cell " << nl.cell(c).name;
        }
        for (NetId n : nl.primary_inputs())
            EXPECT_LT(tape.slot(n), tape.first_comb_slot()) << nl.name();
        // Slots are a permutation, so n_comb cells above the boundary
        // with n_comb slots there fill it exactly.
        EXPECT_EQ(tape.num_instrs(), n_comb) << nl.name();
    }
}

/** Inputs and a DFF chain only: a tape with no instructions. */
Netlist
register_chain_netlist()
{
    Netlist nl("regchain");
    NetId a = nl.add_input_bus("a", 1)[0];
    NetId q0 = nl.new_net("q0");
    NetId q1 = nl.new_net("q1");
    nl.add_dff("ff0", a, q0, false);
    nl.add_dff("ff1", q0, q1, true);
    nl.add_output_bus("q", {q0, q1});
    return nl;
}

TEST(EvalTape, NoCombinationalCellsBuildsAndSteps)
{
    Netlist nl = register_chain_netlist();
    auto tape = std::make_shared<const EvalTape>(nl);
    EXPECT_EQ(tape->num_instrs(), 0u);
    EXPECT_TRUE(tape->runs().empty());
    EXPECT_EQ(tape->first_comb_slot(), tape->num_slots());

    Simulator sim(tape);
    EXPECT_EQ(sim.bus_value("q").to_u64(), 0b10u);
    sim.set_bus("a", BitVec(1, 1));
    sim.step();
    EXPECT_EQ(sim.bus_value("q").to_u64(), 0b01u);
    sim.step();
    EXPECT_EQ(sim.bus_value("q").to_u64(), 0b11u);

    BatchSimulator batch(tape);
    const uint64_t lanes = 0xf0f0f0f0f0f0f0f0ull;
    NetId a = nl.bus("a")[0], q0 = nl.bus("q")[0], q1 = nl.bus("q")[1];
    EXPECT_EQ(batch.value(q1), ~uint64_t(0));
    batch.set_input(a, lanes);
    batch.step();
    EXPECT_EQ(batch.value(q0), lanes);
    EXPECT_EQ(batch.value(q1), 0u);
    batch.step();
    EXPECT_EQ(batch.value(q1), lanes);
}

/** r = a & 1, s = a | 0: both outputs follow a only if both constants hold. */
Netlist
constant_netlist()
{
    Netlist nl("consts");
    Builder b(nl);
    NetId a = nl.add_input_bus("a", 1)[0];
    NetId one = b.const1();
    NetId zero = b.const0();
    nl.add_output_bus("r", {b.and_(a, one)});
    nl.add_output_bus("s", {b.or_(a, zero)});
    nl.add_output_bus("k", {one, zero});
    return nl;
}

TEST(Simulator, RestoreStateRewritesClobberedConstants)
{
    Netlist nl = constant_netlist();
    Simulator sim(nl);
    sim.set_bus("a", BitVec(1, 1));
    std::vector<uint8_t> snap = sim.save_state();
    const std::vector<SlotId> &k = sim.tape().bus_slots("k");
    snap[k[0]] = 0;
    snap[k[1]] = 1;
    sim.restore_state(snap);
    EXPECT_EQ(sim.bus_value("k").to_u64(), 0b01u);
    EXPECT_TRUE(sim.bus_value("r").get(0));
    sim.set_bus("a", BitVec(1, 0));
    EXPECT_FALSE(sim.bus_value("s").get(0));
}

TEST(BatchSimulator, RestoreStateRewritesClobberedConstants)
{
    Netlist nl = constant_netlist();
    BatchSimulator sim(nl);
    const uint64_t lanes = 0x0123456789abcdefull;
    NetId a = nl.bus("a")[0];
    sim.set_input(a, lanes);
    std::vector<uint64_t> snap = sim.save_state();
    const std::vector<SlotId> &k = sim.tape().bus_slots("k");
    snap[k[0]] = 0x5555;
    snap[k[1]] = 0xaaaa;
    sim.restore_state(snap);
    EXPECT_EQ(sim.value(nl.bus("k")[0]), ~uint64_t(0));
    EXPECT_EQ(sim.value(nl.bus("k")[1]), 0u);
    EXPECT_EQ(sim.value(nl.bus("r")[0]), lanes);
    EXPECT_EQ(sim.value(nl.bus("s")[0]), lanes);
}

TEST(EvalTape, MatchesPreTapeReferenceOnRandomNetlists)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Netlist nl = random_netlist(seed, 10, 300, 8);
        Simulator sim(nl);
        ReferenceSim ref(nl);
        Rng stim(seed * 977);
        auto inputs = nl.primary_inputs();
        for (int t = 0; t < 20; ++t) {
            for (NetId in : inputs) {
                bool v = stim.chance(0.5);
                sim.set_input(in, v);
                ref.values[in] = v ? 1 : 0;
            }
            sim.eval();
            ref.eval();
            for (NetId n = 0; n < nl.num_nets(); ++n)
                ASSERT_EQ(sim.value(n), bool(ref.values[n]))
                    << "seed " << seed << " cycle " << t << " net "
                    << nl.net(n).name;
            sim.step();
            ref.step();
        }
    }
}

TEST(BatchSimulator, LockstepWithScalarOnRandomNetlists)
{
    for (uint64_t seed : {21u, 22u, 23u}) {
        Netlist nl = random_netlist(seed, 6, 250, 10);
        auto tape = std::make_shared<const EvalTape>(nl);
        BatchSimulator batch(tape);
        std::vector<std::unique_ptr<Simulator>> lanes;
        for (int l = 0; l < BatchSimulator::kLanes; ++l)
            lanes.push_back(std::make_unique<Simulator>(tape));

        Rng stim(seed * 1319);
        auto inputs = nl.primary_inputs();
        for (int t = 0; t < 12; ++t) {
            for (NetId in : inputs) {
                uint64_t plane = stim.next();
                batch.set_input(in, plane);
                for (int l = 0; l < BatchSimulator::kLanes; ++l)
                    lanes[l]->set_input(in, (plane >> l) & 1);
            }
            for (NetId n = 0; n < nl.num_nets(); ++n) {
                uint64_t plane = batch.value(n);
                for (int l = 0; l < BatchSimulator::kLanes; ++l)
                    ASSERT_EQ((plane >> l) & 1,
                              uint64_t(lanes[l]->value(n)))
                        << "seed " << seed << " cycle " << t << " lane "
                        << l << " net " << nl.net(n).name;
            }
            batch.step();
            for (auto &lane : lanes)
                lane->step();
        }
    }
}

/** All 64 lanes vs 64 scalar runs on a real block, via its port buses. */
void
lockstep_module(const Netlist &nl, bool is_fpu, uint64_t seed)
{
    auto tape = std::make_shared<const EvalTape>(nl);
    BatchSimulator batch(tape);
    std::vector<std::unique_ptr<Simulator>> lanes;
    for (int l = 0; l < BatchSimulator::kLanes; ++l)
        lanes.push_back(std::make_unique<Simulator>(tape));

    Rng stim(seed);
    std::vector<std::string> outs(nl.output_bus_names());
    for (int t = 0; t < 6; ++t) {
        for (int l = 0; l < BatchSimulator::kLanes; ++l) {
            BitVec a(32, stim.next());
            BitVec b(32, stim.next());
            BitVec op(is_fpu ? 3 : 4, stim.below(is_fpu ? 8 : 10));
            batch.set_bus_lane("a", l, a);
            batch.set_bus_lane("b", l, b);
            batch.set_bus_lane("op", l, op);
            lanes[l]->set_bus("a", a);
            lanes[l]->set_bus("b", b);
            lanes[l]->set_bus("op", op);
            if (is_fpu) {
                BitVec valid(1, stim.chance(0.8) ? 1 : 0);
                batch.set_bus_lane("valid", l, valid);
                batch.set_bus_lane("clear", l, BitVec(1, 0));
                lanes[l]->set_bus("valid", valid);
                lanes[l]->set_bus("clear", BitVec(1, 0));
            }
        }
        for (const std::string &bus : outs)
            for (int l = 0; l < BatchSimulator::kLanes; ++l)
                ASSERT_EQ(batch.bus_value(bus, l),
                          lanes[l]->bus_value(bus))
                    << "cycle " << t << " lane " << l << " bus " << bus;
        batch.step();
        for (auto &lane : lanes)
            lane->step();
    }
}

TEST(BatchSimulator, LockstepWithScalarOnAlu32)
{
    static HwModule m = rtl::make_alu32();
    lockstep_module(m.netlist, false, 4242);
}

TEST(BatchSimulator, LockstepWithScalarOnFpu32)
{
    static HwModule m = rtl::make_fpu32();
    lockstep_module(m.netlist, true, 2424);
}

/**
 * Input "a" feeds only register q (like ALU32's operands feed only its
 * stage-1 registers); input "en" gates q into the output through an
 * AND, so it feeds combinational logic.
 */
Netlist
register_only_input_netlist()
{
    Netlist nl("regonly");
    Builder b(nl);
    NetId a = nl.add_input_bus("a", 1)[0];
    NetId en = nl.add_input_bus("en", 1)[0];
    NetId q = nl.new_net("q");
    nl.add_dff("ff", a, q, false);
    nl.add_output_bus("r", {b.and_(q, en)});
    nl.add_output_bus("q", {q});
    return nl;
}

TEST(EvalTape, FeedsLogicMarksOnlyCombinationalReads)
{
    Netlist nl = register_only_input_netlist();
    EvalTape tape(nl);
    EXPECT_FALSE(tape.feeds_logic(tape.slot(nl.bus("a")[0])));
    EXPECT_TRUE(tape.feeds_logic(tape.slot(nl.bus("en")[0])));
    EXPECT_TRUE(tape.feeds_logic(tape.slot(nl.bus("q")[0])));
    EXPECT_FALSE(tape.feeds_logic(tape.slot(nl.bus("r")[0])));
}

TEST(BatchSimulator, RegisterOnlyInputLeavesSettleClean)
{
    Netlist nl = register_only_input_netlist();
    BatchSimulator sim(nl);
    NetId a = nl.bus("a")[0], en = nl.bus("en")[0];
    NetId q = nl.bus("q")[0], r = nl.bus("r")[0];
    obs::Counter &evals = obs::counter("sim.batch_evals");

    sim.set_input(en, ~uint64_t(0));
    EXPECT_EQ(sim.value(r), 0u);
    uint64_t settled = evals.value();
    const uint64_t lanes = 0x00ff00ff00ff00ffull;
    sim.set_input(a, lanes);
    EXPECT_EQ(sim.value(r), 0u);
    EXPECT_EQ(evals.value(), settled) << "register-only input re-settled";

    // The edge still commits the new value, and the post-edge settle
    // waits for the first reader.
    sim.step();
    EXPECT_EQ(evals.value(), settled);
    EXPECT_EQ(sim.value(q), lanes);
    EXPECT_EQ(sim.value(r), lanes);
    EXPECT_EQ(evals.value(), settled + 1);

    // An unchanged plane never dirties; a changed logic input does.
    sim.set_input(en, ~uint64_t(0));
    EXPECT_EQ(sim.value(r), lanes);
    EXPECT_EQ(evals.value(), settled + 1);
    sim.set_input(en, 0);
    EXPECT_EQ(sim.value(r), 0u);
    EXPECT_EQ(evals.value(), settled + 2);
}

TEST(Simulator, RegisterOnlyInputLeavesSettleClean)
{
    Netlist nl = register_only_input_netlist();
    Simulator sim(nl);
    NetId a = nl.bus("a")[0], en = nl.bus("en")[0];
    NetId q = nl.bus("q")[0], r = nl.bus("r")[0];
    obs::Counter &evals = obs::counter("sim.evals");

    sim.set_input(en, true);
    EXPECT_FALSE(sim.value(r));
    uint64_t settled = evals.value();
    sim.set_input(a, true);
    EXPECT_FALSE(sim.value(r));
    EXPECT_EQ(evals.value(), settled) << "register-only input re-settled";

    sim.step();
    EXPECT_EQ(evals.value(), settled);
    EXPECT_TRUE(sim.value(q));
    EXPECT_TRUE(sim.value(r));
    EXPECT_EQ(evals.value(), settled + 1);
}

TEST(Simulator, SetBusRejectsOutputBus)
{
    Netlist nl = register_only_input_netlist();
    Simulator sim(nl);
    EXPECT_DEATH(sim.set_bus("q", BitVec(1, 1)),
                 "q of regonly is not an input bus");
}

TEST(BatchSimulator, SetBusRejectsOutputBus)
{
    Netlist nl = register_only_input_netlist();
    BatchSimulator sim(nl);
    EXPECT_DEATH(sim.set_bus_lane("q", 0, BitVec(1, 1)),
                 "q of regonly is not an input bus");
    EXPECT_DEATH(sim.set_bus_all("r", BitVec(1, 1)),
                 "r of regonly is not an input bus");
}

TEST(BatchSimulator, SaveRestoreRoundTrip)
{
    Netlist nl = random_netlist(77, 6, 150, 8);
    BatchSimulator sim(nl);
    Rng stim(99);
    auto inputs = nl.primary_inputs();
    auto drive = [&](Rng &r) {
        for (NetId in : inputs)
            sim.set_input(in, r.next());
    };
    Rng first(5);
    drive(first);
    sim.run(4);
    auto saved = sim.save_state();

    Rng cont(6);
    drive(cont);
    sim.run(3);
    std::vector<uint64_t> after;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        after.push_back(sim.value(n));

    sim.restore_state(saved);
    Rng replay(6);
    drive(replay);
    sim.run(3);
    for (NetId n = 0; n < nl.num_nets(); ++n)
        EXPECT_EQ(sim.value(n), after[n]) << nl.net(n).name;
}

TEST(BatchSimulator, RestoreStateRejectsWrongSize)
{
    Netlist nl = random_netlist(78, 4, 40, 2);
    BatchSimulator sim(nl);
    std::vector<uint64_t> wrong(nl.num_nets() + 3, 0);
    EXPECT_DEATH(sim.restore_state(wrong), "restore_state plane count");
}

TEST(SpProfiler, BatchSampleMatchesMergedLanes)
{
    // Profiling N cycles in one 64-lane batch must equal merging 64
    // single-lane profiles bit-for-bit in ones/transitions/samples.
    Netlist nl = random_netlist(55, 6, 200, 10);
    auto tape = std::make_shared<const EvalTape>(nl);
    auto inputs = nl.primary_inputs();
    const uint64_t kCycles = 40;

    // Pre-draw the stimulus planes so scalar lanes can replay bits.
    Rng stim(31337);
    std::vector<std::vector<uint64_t>> planes(kCycles);
    for (auto &row : planes)
        for (size_t i = 0; i < inputs.size(); ++i)
            row.push_back(stim.next());

    BatchSimulator batch(tape);
    SpProfile batched = profile_signal_probability_batch(
        batch, kCycles, [&](BatchSimulator &s, uint64_t t) {
            for (size_t i = 0; i < inputs.size(); ++i)
                s.set_input(inputs[i], planes[t][i]);
        });

    SpProfile merged(nl.num_cells());
    for (int lane = 0; lane < BatchSimulator::kLanes; ++lane) {
        Simulator sim(tape);
        SpProfile p = profile_signal_probability(
            sim, kCycles, [&](Simulator &s, uint64_t t) {
                for (size_t i = 0; i < inputs.size(); ++i)
                    s.set_input(inputs[i], (planes[t][i] >> lane) & 1);
            });
        merged.merge(p);
    }

    ASSERT_EQ(batched.samples(), merged.samples());
    ASSERT_EQ(batched.samples(), kCycles * BatchSimulator::kLanes);
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        // sp/activity are integer-counter ratios: exact doubles, so
        // exact equality here means ones_/transitions_ are identical.
        EXPECT_DOUBLE_EQ(batched.sp(c), merged.sp(c)) << "cell " << c;
        EXPECT_DOUBLE_EQ(batched.activity(c), merged.activity(c))
            << "cell " << c;
    }
}

TEST(SpProfiler, MixedSampleWidthsAreRejected)
{
    Netlist nl = random_netlist(56, 4, 50, 2);
    auto tape = std::make_shared<const EvalTape>(nl);
    Simulator sim(tape);
    BatchSimulator batch(tape);

    SpProfile p(nl.num_cells());
    p.sample(sim);
    EXPECT_DEATH(p.sample(batch), "batch sample");

    SpProfile q(nl.num_cells());
    q.sample(batch);
    EXPECT_DEATH(q.sample(sim), "scalar sample");
}

} // namespace
} // namespace vega
