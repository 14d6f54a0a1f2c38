/**
 * @file
 * 64-lane bit-parallel gate-level simulator over an EvalTape.
 *
 * Each value slot holds a uint64_t *plane*: bit L is the value of the
 * net in lane L, and every lane is an independent stimulus/state
 * stream (classic bit-parallel "PPSFP-style" simulation). One pass
 * over the tape's instruction stream therefore advances 64 complete
 * simulations: an AND2 is a single `&` across all lanes, a clock edge
 * commits all DFF planes at once.
 *
 * Semantics per lane are exactly the Simulator's: combinational cells
 * settle in the tape's levelized order, one tight loop per same-opcode
 * run (EvalTape::settle), then step() commits every DFF atomically.
 * Constant slots are written at reset() and restore_state() only; a
 * settle never rewrites them, and set_bus_lane/set_bus_all refuse
 * output buses so no driver can clobber one. Settling is lazy: an
 * edge or an input change only marks the tape dirty, and the next
 * reader (value(), bus_value(), the next step()) pays for one settle.
 * An input change dirties the tape only if the plane differs and some
 * combinational instruction reads the input (EvalTape::feeds_logic).
 * Lockstep equivalence against 64 scalar Simulator runs is pinned by
 * tests/test_eval_tape.cpp.
 *
 * Consumers: SpProfile::sample(BatchSimulator&) popcounts planes into
 * its per-cell counters (64 samples per call), and lift::fuzz_cover
 * runs 64 fuzzing episodes per simulated cycle.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "sim/eval_tape.h"

namespace vega {

class BatchSimulator
{
  public:
    /** Number of independent simulation lanes per instance. */
    static constexpr int kLanes = 64;

    /** Build (and own) a fresh tape for @p nl. */
    explicit BatchSimulator(const Netlist &nl);

    /** Share an existing tape (must be non-null). */
    explicit BatchSimulator(std::shared_ptr<const EvalTape> tape);

    const Netlist &netlist() const { return tape_->netlist(); }
    const EvalTape &tape() const { return *tape_; }

    /** Load DFF init values, zero all primary inputs, settle. */
    void reset();

    /**
     * Drive a primary input with a per-lane plane (bit L = lane L).
     * Leaves a settled tape clean unless the plane changes and the
     * input feeds combinational logic.
     */
    void set_input(NetId net, uint64_t lanes);

    /** Drive a primary input to the same value in every lane. */
    void set_input_all(NetId net, bool value)
    {
        set_input(net, value ? ~uint64_t(0) : 0);
    }

    /**
     * Drive an input bus in one lane only; width must match. Panics on
     * an output bus.
     */
    void set_bus_lane(const std::string &bus, int lane,
                      const BitVec &value);

    /** Drive an input bus to the same value in every lane (as above). */
    void set_bus_all(const std::string &bus, const BitVec &value);

    /** Settle combinational logic. Called implicitly by readers. */
    void eval();

    /**
     * One clock edge in every lane: settle, then commit every DFF. The
     * post-edge settle is left to the next reader.
     */
    void step();

    /** Run @p n clock cycles (n * 64 lane-cycles). */
    void run(uint64_t n);

    /** Per-lane plane of @p net (post-settle). */
    uint64_t value(NetId net);

    /** Value of @p net in lane @p lane. */
    bool value_lane(NetId net, int lane)
    {
        return (value(net) >> lane) & 1;
    }

    /** Bus value in one lane as a BitVec (LSB first). */
    BitVec bus_value(const std::string &bus, int lane);

    /** Per-bit planes of a bus (planes[i] = plane of bus bit i). */
    std::vector<uint64_t> bus_planes(const std::string &bus);

    uint64_t cycle() const { return cycle_; }

    /**
     * Snapshot of all planes (slot-ordered, opaque to callers). The
     * combinational slots may be unsettled; restore_state() re-settles.
     */
    std::vector<uint64_t> save_state() const { return planes_; }

    /**
     * Restore a snapshot and rewrite every constant slot, so a snapshot
     * cannot leave a constant driver corrupted. Panics unless the
     * snapshot matches this netlist.
     */
    void restore_state(const std::vector<uint64_t> &state);

  private:
    /** Write every constant slot (reset and restore only). */
    void write_constants();

    /** Write an input plane; dirty only if it changes settled logic. */
    void drive(SlotId slot, uint64_t lanes)
    {
        if (planes_[slot] == lanes)
            return;
        planes_[slot] = lanes;
        if (tape_->feeds_logic(slot))
            dirty_ = true;
    }

    std::shared_ptr<const EvalTape> tape_;
    std::vector<uint64_t> planes_;   ///< per-slot lane planes
    std::vector<uint64_t> dff_next_; ///< edge-commit scratch
    bool dirty_ = true;
    uint64_t cycle_ = 0;
};

} // namespace vega
