#include "sim/eval_tape.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega {

EvalTape::EvalTape(const Netlist &nl) : nl_(nl)
{
    VEGA_SPAN("sim.tape_build");

    // Validates acyclicity and fixes the evaluation order. Everything
    // below is a straight re-encoding of this order into flat arrays.
    const std::vector<CellId> &topo = nl.topo_order();

    slot_of_net_.assign(nl.num_nets(), 0);
    cell_out_slot_.assign(nl.num_cells(), 0);

    // Slot assignment by evaluation phase: inputs and constants first,
    // then DFF Qs (live across edges), then combinational outputs in
    // topo order, so each settle writes the plane front-to-back.
    SlotId next = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        if (nl.net(n).is_primary_input)
            slot_of_net_[n] = next++;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        CellType t = nl.cell(c).type;
        if (t == CellType::Const0 || t == CellType::Const1) {
            slot_of_net_[nl.cell(c).out] = next++;
            const_rules_.push_back(
                {slot_of_net_[nl.cell(c).out],
                 uint8_t(t == CellType::Const1 ? 1 : 0)});
        }
    }
    for (CellId c = 0; c < nl.num_cells(); ++c)
        if (nl.cell(c).type == CellType::Dff)
            slot_of_net_[nl.cell(c).out] = next++;
    for (CellId c : topo) {
        CellType t = nl.cell(c).type;
        if (t == CellType::Const0 || t == CellType::Const1)
            continue; // hoisted out of the per-cycle stream
        slot_of_net_[nl.cell(c).out] = next++;
    }
    VEGA_CHECK(next == nl.num_nets(),
               "tape lowering of ", nl.name(), " missed nets (", next,
               " slots for ", nl.num_nets(), " nets)");

    // Instruction stream: combinational cells only, constants hoisted.
    op_.reserve(topo.size());
    in0_.reserve(topo.size());
    in1_.reserve(topo.size());
    in2_.reserve(topo.size());
    out_.reserve(topo.size());
    feeds_logic_.assign(nl.num_nets(), 0);
    for (CellId c : topo) {
        const Cell &cell = nl.cell(c);
        if (cell.type == CellType::Const0 || cell.type == CellType::Const1)
            continue;
        int n_in = cell.num_inputs();
        for (int k = 0; k < n_in; ++k)
            feeds_logic_[slot_of_net_[cell.in[k]]] = 1;
        op_.push_back(uint8_t(cell.type));
        in0_.push_back(n_in > 0 ? slot_of_net_[cell.in[0]] : 0);
        in1_.push_back(n_in > 1 ? slot_of_net_[cell.in[1]] : 0);
        in2_.push_back(n_in > 2 ? slot_of_net_[cell.in[2]] : 0);
        out_.push_back(slot_of_net_[cell.out]);
    }

    for (CellId c = 0; c < nl.num_cells(); ++c) {
        const Cell &cell = nl.cell(c);
        cell_out_slot_[c] = slot_of_net_[cell.out];
        if (cell.type == CellType::Dff)
            dff_rules_.push_back({slot_of_net_[cell.in[0]],
                                  slot_of_net_[cell.out],
                                  uint8_t(cell.init ? 1 : 0)});
    }

    for (const std::string &name : nl.input_bus_names()) {
        std::vector<SlotId> slots;
        for (NetId n : nl.bus(name))
            slots.push_back(slot_of_net_[n]);
        bus_slots_[name] = std::move(slots);
    }
    for (const std::string &name : nl.output_bus_names()) {
        std::vector<SlotId> slots;
        for (NetId n : nl.bus(name))
            slots.push_back(slot_of_net_[n]);
        bus_slots_[name] = std::move(slots);
    }

    static obs::Counter &builds = obs::counter("sim.tape_builds");
    static obs::Counter &instrs = obs::counter("sim.tape_instrs");
    builds.inc();
    instrs.add(op_.size());
}

const std::vector<SlotId> &
EvalTape::bus_slots(const std::string &name) const
{
    auto it = bus_slots_.find(name);
    VEGA_CHECK(it != bus_slots_.end(), "no bus named ", name);
    return it->second;
}

} // namespace vega
