/**
 * @file
 * Levelized cycle-accurate gate-level simulator.
 *
 * Plays the role Verilator plays in the paper's evaluation: it executes the
 * placed-and-routed netlist (including instrumented failing netlists)
 * cycle by cycle. Semantics are standard synchronous two-phase evaluation:
 * combinational cells settle in topological order, then the clock edge
 * commits every DFF atomically.
 *
 * Internally this is a thin 1-lane interpreter over a compiled EvalTape
 * (sim/eval_tape.h): the netlist is lowered once into a levelized
 * instruction stream grouped into same-opcode runs, and eval() runs one
 * tight loop per run (EvalTape::settle) over primitive index arrays
 * instead of chasing Cell structs through topo_order(). Constant slots
 * are written at reset() and restore_state() only, never per eval;
 * set_input/set_bus refuse anything but primary inputs, so nothing else
 * writes them. The public API and cycle semantics are unchanged from the
 * pre-tape simulator; the 64-lane variant over the same tape is
 * sim/batch_sim.h.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "netlist/netlist.h"
#include "sim/eval_tape.h"

namespace vega {

class Simulator
{
  public:
    explicit Simulator(const Netlist &nl);

    /** Share a pre-built tape (must be non-null) instead of lowering. */
    explicit Simulator(std::shared_ptr<const EvalTape> tape);

    const Netlist &netlist() const { return tape_->netlist(); }
    const EvalTape &tape() const { return *tape_; }

    /** Load DFF init values, zero all primary inputs, settle. */
    void reset();

    /**
     * Drive a single primary-input net. Takes effect at the next eval;
     * a settled tape stays clean unless the value changes and the net
     * feeds combinational logic (EvalTape::feeds_logic).
     */
    void set_input(NetId net, bool value);

    /**
     * Drive an input bus (LSB first); width must match. Panics on an
     * output bus.
     */
    void set_bus(const std::string &bus, const BitVec &value);

    /** Settle combinational logic. Called implicitly by step()/readers. */
    void eval();

    /**
     * One clock edge: settle, then commit all DFFs. The post-edge
     * settle is left to the next reader (or the next edge).
     */
    void step();

    /** Run @p n clock cycles. */
    void run(uint64_t n);

    /** Current value of a net (post-settle). */
    bool value(NetId net);

    /** Current value of a bus as a BitVec (LSB first). */
    BitVec bus_value(const std::string &bus);

    uint64_t cycle() const { return cycle_; }

    /**
     * Snapshot of all net values (for speculative pipeline reads).
     * Slot-ordered and opaque: only meaningful to restore_state() on a
     * simulator over the same netlist. Combinational slots may be
     * unsettled; restore_state() re-settles on the next read.
     */
    std::vector<uint8_t> save_state() const { return values_; }

    /**
     * Restore a snapshot and rewrite every constant slot, so a snapshot
     * cannot leave a constant driver corrupted. Panics if @p state does
     * not match this netlist's net count — a wrong-sized vector means
     * the snapshot came from a different netlist and would silently
     * corrupt every downstream read.
     */
    void restore_state(const std::vector<uint8_t> &state);

  private:
    /** Write every constant slot (reset and restore only). */
    void write_constants();

    /** Write an input value; dirty only if it changes settled logic. */
    void drive(SlotId slot, uint8_t value)
    {
        if (values_[slot] == value)
            return;
        values_[slot] = value;
        if (tape_->feeds_logic(slot))
            dirty_ = true;
    }

    std::shared_ptr<const EvalTape> tape_;
    std::vector<uint8_t> values_;   ///< per-slot current value
    std::vector<uint8_t> dff_next_; ///< edge-commit scratch
    bool dirty_ = true;             ///< inputs changed since last eval
    uint64_t cycle_ = 0;
};

} // namespace vega
