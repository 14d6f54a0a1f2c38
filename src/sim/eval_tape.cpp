#include "sim/eval_tape.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega {

namespace {

constexpr size_t kNumOpcodes = size_t(CellType::Dff) + 1;

bool
is_const(CellType t)
{
    return t == CellType::Const0 || t == CellType::Const1;
}

} // namespace

EvalTape::EvalTape(const Netlist &nl) : nl_(nl)
{
    VEGA_SPAN("sim.tape_build");

    // Validates acyclicity and fixes a topological order, which the
    // levels below refine.
    const std::vector<CellId> &topo = nl.topo_order();

    // Level of every net: primary inputs, constants and DFF Qs are 0,
    // a combinational output is 1 + its highest input level.
    std::vector<uint32_t> level(nl.num_nets(), 0);
    uint32_t max_level = 0;
    for (CellId c : topo) {
        const Cell &cell = nl.cell(c);
        if (is_const(cell.type))
            continue;
        uint32_t l = 0;
        for (int k = 0; k < cell.num_inputs(); ++k)
            l = std::max(l, level[cell.in[k]]);
        level[cell.out] = l + 1;
        max_level = std::max(max_level, l + 1);
    }

    // Stream order: (level, opcode, topo position), by a stable
    // counting sort over the (level, opcode) key.
    auto key = [&](CellId c) {
        const Cell &cell = nl.cell(c);
        return size_t(level[cell.out]) * kNumOpcodes + size_t(cell.type);
    };
    std::vector<size_t> bucket((size_t(max_level) + 1) * kNumOpcodes + 1,
                               0);
    size_t num_comb = 0;
    for (CellId c : topo)
        if (!is_const(nl.cell(c).type)) {
            ++bucket[key(c) + 1];
            ++num_comb;
        }
    for (size_t k = 1; k < bucket.size(); ++k)
        bucket[k] += bucket[k - 1];
    std::vector<CellId> order(num_comb);
    for (CellId c : topo)
        if (!is_const(nl.cell(c).type))
            order[bucket[key(c)]++] = c;

    slot_of_net_.assign(nl.num_nets(), 0);
    cell_out_slot_.assign(nl.num_cells(), 0);

    // Slot assignment by evaluation phase: inputs and constants first,
    // then DFF Qs (live across edges), then combinational outputs in
    // stream order, so instruction i writes first_comb_slot_ + i.
    SlotId next = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        if (nl.net(n).is_primary_input)
            slot_of_net_[n] = next++;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        CellType t = nl.cell(c).type;
        if (is_const(t)) {
            slot_of_net_[nl.cell(c).out] = next;
            const_rules_.push_back(
                {next++, uint8_t(t == CellType::Const1 ? 1 : 0)});
        }
    }
    for (CellId c = 0; c < nl.num_cells(); ++c)
        if (nl.cell(c).type == CellType::Dff)
            slot_of_net_[nl.cell(c).out] = next++;
    first_comb_slot_ = next;
    for (CellId c : order)
        slot_of_net_[nl.cell(c).out] = next++;
    VEGA_CHECK(next == nl.num_nets(),
               "tape lowering of ", nl.name(), " missed nets (", next,
               " slots for ", nl.num_nets(), " nets)");

    // Instruction stream: combinational cells only, constants hoisted,
    // with maximal same-opcode stretches recorded as runs.
    in0_.reserve(num_comb);
    in1_.reserve(num_comb);
    in2_.reserve(num_comb);
    feeds_logic_.assign(nl.num_nets(), 0);
    for (CellId c : order) {
        const Cell &cell = nl.cell(c);
        int n_in = cell.num_inputs();
        for (int k = 0; k < n_in; ++k)
            feeds_logic_[slot_of_net_[cell.in[k]]] = 1;
        in0_.push_back(n_in > 0 ? slot_of_net_[cell.in[0]] : 0);
        in1_.push_back(n_in > 1 ? slot_of_net_[cell.in[1]] : 0);
        in2_.push_back(n_in > 2 ? slot_of_net_[cell.in[2]] : 0);
        uint8_t op = uint8_t(cell.type);
        if (runs_.empty() || runs_.back().op != op)
            runs_.push_back({op, 0});
        runs_.back().end = uint32_t(in0_.size());
    }

    for (CellId c = 0; c < nl.num_cells(); ++c) {
        const Cell &cell = nl.cell(c);
        cell_out_slot_[c] = slot_of_net_[cell.out];
        if (cell.type == CellType::Dff)
            dff_rules_.push_back({slot_of_net_[cell.in[0]],
                                  slot_of_net_[cell.out],
                                  uint8_t(cell.init ? 1 : 0)});
    }

    auto add_buses = [&](const std::vector<std::string> &names,
                         bool input) {
        for (const std::string &name : names) {
            PortBus &bus = buses_[name];
            bus.input = input;
            for (NetId n : nl.bus(name))
                bus.slots.push_back(slot_of_net_[n]);
        }
    };
    add_buses(nl.input_bus_names(), true);
    add_buses(nl.output_bus_names(), false);

    static obs::Counter &builds = obs::counter("sim.tape_builds");
    static obs::Counter &instrs = obs::counter("sim.tape_instrs");
    builds.inc();
    instrs.add(num_comb);
}

const std::vector<SlotId> &
EvalTape::bus_slots(const std::string &name) const
{
    auto it = buses_.find(name);
    VEGA_CHECK(it != buses_.end(), "no bus named ", name);
    return it->second.slots;
}

const std::vector<SlotId> &
EvalTape::input_bus_slots(const std::string &name) const
{
    auto it = buses_.find(name);
    VEGA_CHECK(it != buses_.end(), "no bus named ", name);
    VEGA_CHECK(it->second.input, "bus ", name, " of ", nl_.name(),
               " is not an input bus");
    return it->second.slots;
}

} // namespace vega
