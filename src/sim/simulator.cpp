#include "sim/simulator.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace vega {

namespace {

/**
 * Process totals across every Simulator instance. One relaxed
 * fetch_add per clock edge / settle — noise next to the tape walk
 * each of those implies.
 */
obs::Counter &
cycles_counter()
{
    static obs::Counter &c = obs::counter("sim.cycles");
    return c;
}

obs::Counter &
evals_counter()
{
    static obs::Counter &c = obs::counter("sim.evals");
    return c;
}

} // namespace

Simulator::Simulator(const Netlist &nl)
    : Simulator(std::make_shared<const EvalTape>(nl))
{
}

Simulator::Simulator(std::shared_ptr<const EvalTape> tape)
    : tape_(std::move(tape))
{
    VEGA_CHECK(tape_ != nullptr, "Simulator needs a tape");
    values_.assign(tape_->num_slots(), 0);
    dff_next_.assign(tape_->dff_rules().size(), 0);
    reset();
}

void
Simulator::reset()
{
    std::fill(values_.begin(), values_.end(), 0);
    for (const EvalTape::DffRule &r : tape_->dff_rules())
        values_[r.q] = r.init;
    write_constants();
    cycle_ = 0;
    dirty_ = true;
    eval();
}

void
Simulator::write_constants()
{
    for (const EvalTape::ConstRule &r : tape_->const_rules())
        values_[r.slot] = r.value;
}

void
Simulator::set_input(NetId net, bool value)
{
    VEGA_CHECK(tape_->is_primary_input(net), "set_input on non-input net ",
               netlist().net(net).name);
    drive(tape_->slot(net), value ? 1 : 0);
}

void
Simulator::set_bus(const std::string &bus, const BitVec &value)
{
    const std::vector<SlotId> &slots = tape_->input_bus_slots(bus);
    VEGA_CHECK(slots.size() == value.width(), "bus width mismatch on ",
               bus);
    for (size_t i = 0; i < slots.size(); ++i)
        drive(slots[i], value.get(i) ? 1 : 0);
}

void
Simulator::eval()
{
    if (!dirty_)
        return;
    evals_counter().inc();
    tape_->settle(values_.data(), uint8_t(1));
    dirty_ = false;
}

void
Simulator::step()
{
    eval();
    // Capture all D pins, then commit all Qs (atomic clock edge).
    const std::vector<EvalTape::DffRule> &dffs = tape_->dff_rules();
    for (size_t i = 0; i < dffs.size(); ++i)
        dff_next_[i] = values_[dffs[i].d];
    for (size_t i = 0; i < dffs.size(); ++i)
        values_[dffs[i].q] = dff_next_[i];
    ++cycle_;
    cycles_counter().inc();
    dirty_ = true; // settled lazily by the next reader or edge
}

void
Simulator::run(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        step();
}

bool
Simulator::value(NetId net)
{
    eval();
    return values_[tape_->slot(net)];
}

BitVec
Simulator::bus_value(const std::string &bus)
{
    eval();
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    BitVec v(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        v.set(i, values_[slots[i]]);
    return v;
}

void
Simulator::restore_state(const std::vector<uint8_t> &state)
{
    VEGA_CHECK(state.size() == netlist().num_nets(),
               "restore_state size ", state.size(),
               " does not match netlist ", netlist().name(), " (",
               netlist().num_nets(), " nets)");
    values_ = state;
    write_constants();
    dirty_ = true;
}

} // namespace vega
