#include "sim/batch_sim.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace vega {

namespace {

obs::Counter &
batch_cycles_counter()
{
    static obs::Counter &c = obs::counter("sim.batch_cycles");
    return c;
}

obs::Counter &
lane_cycles_counter()
{
    static obs::Counter &c = obs::counter("sim.lane_cycles");
    return c;
}

obs::Counter &
batch_evals_counter()
{
    static obs::Counter &c = obs::counter("sim.batch_evals");
    return c;
}

} // namespace

BatchSimulator::BatchSimulator(const Netlist &nl)
    : BatchSimulator(std::make_shared<const EvalTape>(nl))
{
}

BatchSimulator::BatchSimulator(std::shared_ptr<const EvalTape> tape)
    : tape_(std::move(tape))
{
    VEGA_CHECK(tape_ != nullptr, "BatchSimulator needs a tape");
    planes_.assign(tape_->num_slots(), 0);
    dff_next_.assign(tape_->dff_rules().size(), 0);
    reset();
}

void
BatchSimulator::reset()
{
    std::fill(planes_.begin(), planes_.end(), 0);
    for (const EvalTape::DffRule &r : tape_->dff_rules())
        planes_[r.q] = r.init ? ~uint64_t(0) : 0;
    write_constants();
    cycle_ = 0;
    dirty_ = true;
    eval();
}

void
BatchSimulator::write_constants()
{
    for (const EvalTape::ConstRule &r : tape_->const_rules())
        planes_[r.slot] = r.value ? ~uint64_t(0) : 0;
}

void
BatchSimulator::set_input(NetId net, uint64_t lanes)
{
    VEGA_CHECK(tape_->is_primary_input(net), "set_input on non-input net ",
               netlist().net(net).name);
    drive(tape_->slot(net), lanes);
}

void
BatchSimulator::set_bus_lane(const std::string &bus, int lane,
                             const BitVec &value)
{
    const std::vector<SlotId> &slots = tape_->input_bus_slots(bus);
    VEGA_CHECK(slots.size() == value.width(), "bus width mismatch on ",
               bus);
    VEGA_CHECK(lane >= 0 && lane < kLanes, "lane out of range");
    uint64_t bit = uint64_t(1) << lane;
    for (size_t i = 0; i < slots.size(); ++i)
        drive(slots[i], value.get(i) ? planes_[slots[i]] | bit
                                     : planes_[slots[i]] & ~bit);
}

void
BatchSimulator::set_bus_all(const std::string &bus, const BitVec &value)
{
    const std::vector<SlotId> &slots = tape_->input_bus_slots(bus);
    VEGA_CHECK(slots.size() == value.width(), "bus width mismatch on ",
               bus);
    for (size_t i = 0; i < slots.size(); ++i)
        drive(slots[i], value.get(i) ? ~uint64_t(0) : 0);
}

void
BatchSimulator::eval()
{
    if (!dirty_)
        return;
    batch_evals_counter().inc();
    tape_->settle(planes_.data(), ~uint64_t(0));
    dirty_ = false;
}

void
BatchSimulator::step()
{
    eval();
    const std::vector<EvalTape::DffRule> &dffs = tape_->dff_rules();
    for (size_t i = 0; i < dffs.size(); ++i)
        dff_next_[i] = planes_[dffs[i].d];
    for (size_t i = 0; i < dffs.size(); ++i)
        planes_[dffs[i].q] = dff_next_[i];
    ++cycle_;
    batch_cycles_counter().inc();
    lane_cycles_counter().add(kLanes);
    dirty_ = true; // settled lazily by the next reader or edge
}

void
BatchSimulator::run(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        step();
}

uint64_t
BatchSimulator::value(NetId net)
{
    eval();
    return planes_[tape_->slot(net)];
}

BitVec
BatchSimulator::bus_value(const std::string &bus, int lane)
{
    eval();
    VEGA_CHECK(lane >= 0 && lane < kLanes, "lane out of range");
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    BitVec v(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        v.set(i, (planes_[slots[i]] >> lane) & 1);
    return v;
}

std::vector<uint64_t>
BatchSimulator::bus_planes(const std::string &bus)
{
    eval();
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    std::vector<uint64_t> out(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        out[i] = planes_[slots[i]];
    return out;
}

void
BatchSimulator::restore_state(const std::vector<uint64_t> &state)
{
    VEGA_CHECK(state.size() == tape_->num_slots(),
               "restore_state plane count ", state.size(),
               " does not match netlist ", netlist().name(), " (",
               tape_->num_slots(), " slots)");
    planes_ = state;
    write_constants();
    dirty_ = true;
}

} // namespace vega
