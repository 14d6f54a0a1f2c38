/**
 * @file
 * Compiled evaluation tape: a Netlist lowered once into a flat,
 * cache-friendly instruction stream.
 *
 * The levelized Simulator used to re-walk Netlist::topo_order() every
 * eval, chasing AoS Cell structs (each carrying a std::string name) and
 * re-deriving pin counts per cell per cycle. The EvalTape performs that
 * traversal exactly once per netlist and records its result as
 * structure-of-arrays vectors of primitive indices:
 *
 *  - a combinational instruction stream: dense input value-slot
 *    indices per cell, grouped into same-opcode runs (below);
 *  - a DFF commit list (D slot, Q slot, init bit) applied atomically
 *    at each clock edge;
 *  - a constant list (slot, value);
 *  - slot maps for nets, cell outputs, and named port buses.
 *
 * Levelized run layout. Every combinational cell gets a level: 1 + the
 * highest level among its inputs, where primary inputs, constants and
 * DFF Qs are level 0. The stream is ordered by (level, opcode, topo
 * position), so it is still a topological order, and no instruction
 * reads a slot written at its own level or later. Maximal stretches of
 * one opcode form runs(), each an (opcode, end) pair; an interpreter
 * runs one tight loop per run (settle()) instead of dispatching per
 * instruction. Instruction i writes slot first_comb_slot() + i, so the
 * stream stores no output indices.
 *
 * Value slots are a permutation of NetIds ordered by evaluation phase
 * (primary inputs, constants, DFF Qs, then combinational outputs in
 * stream order), so a settle writes the plane's tail front-to-back.
 *
 * Constants are written only at reset() and restore_state(), never per
 * settle. That holds because nothing else can write a constant slot:
 * settles write only combinational slots, edges only DFF Qs, and
 * set_input/set_bus refuse anything but primary inputs (input_bus_slots).
 *
 * Every simulation consumer — the 1-lane Simulator, the 64-lane
 * BatchSimulator, SP profiling, fuzz lifting, the ISS netlist backend,
 * and the campaign engine — interprets this one artifact through
 * settle(), so all of them share a single lowering of eval_cell
 * semantics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "netlist/netlist.h"

namespace vega {

/** Dense index into a simulator's value plane. */
using SlotId = uint32_t;

class EvalTape
{
  public:
    /**
     * Lower @p nl. Panics (like Simulator always has) if the
     * combinational subgraph is cyclic. The netlist must outlive the
     * tape; the tape is immutable afterwards and safe to share across
     * simulator instances and threads.
     */
    explicit EvalTape(const Netlist &nl);

    const Netlist &netlist() const { return nl_; }

    /** One slot per net: the value plane length of any interpreter. */
    size_t num_slots() const { return slot_of_net_.size(); }

    /** Value slot holding the current value of @p net. */
    SlotId slot(NetId net) const { return slot_of_net_[net]; }

    /** Value slot holding the output of cell @p c (DFFs included). */
    SlotId cell_out_slot(CellId c) const { return cell_out_slot_[c]; }

    /// @name Combinational instruction stream (levelized opcode runs)
    /// @{
    size_t num_instrs() const { return in0_.size(); }

    /** Slot written by instruction 0; instruction i writes this + i. */
    SlotId first_comb_slot() const { return first_comb_slot_; }

    const std::vector<SlotId> &in0() const { return in0_; }
    const std::vector<SlotId> &in1() const { return in1_; }
    const std::vector<SlotId> &in2() const { return in2_; }

    /** Instructions [previous run's end, end) all have opcode @p op. */
    struct Run
    {
        uint8_t op; ///< CellType as a byte
        uint32_t end;
    };
    const std::vector<Run> &runs() const { return runs_; }
    /// @}

    /** Clock-edge commit rule: Q slot takes the D slot's value. */
    struct DffRule
    {
        SlotId d;
        SlotId q;
        uint8_t init; ///< Q value at reset
    };
    const std::vector<DffRule> &dff_rules() const { return dff_rules_; }

    /** Constant driver: @p slot always holds @p value. */
    struct ConstRule
    {
        SlotId slot;
        uint8_t value;
    };
    const std::vector<ConstRule> &const_rules() const
    {
        return const_rules_;
    }

    /** Slots of bus @p name, LSB first (panics on unknown name). */
    const std::vector<SlotId> &bus_slots(const std::string &name) const;

    /**
     * Slots of input bus @p name, LSB first. Panics on an unknown name
     * and on an output bus, whose slots a driver must never write.
     */
    const std::vector<SlotId> &
    input_bus_slots(const std::string &name) const;

    bool is_primary_input(NetId net) const
    {
        return nl_.net(net).is_primary_input;
    }

    /**
     * True if some combinational instruction reads @p slot. A primary
     * input that feeds only DFF D pins (ALU32's a/b/op, captured by the
     * stage-1 registers) cannot change any settled value, so the
     * interpreters leave the tape clean when such an input changes;
     * the next edge still commits the new value, since commits read
     * the D slot directly.
     */
    bool feeds_logic(SlotId slot) const { return feeds_logic_[slot] != 0; }

    /**
     * Settle every combinational slot of value plane @p v, one loop per
     * opcode run. Word is uint8_t for one lane (values 0/1, @p ones = 1)
     * or uint64_t for 64 lanes (@p ones = ~0).
     */
    template <typename Word>
    void settle(Word *v, Word ones) const
    {
        Word *out = v + first_comb_slot_;
        const SlotId *a = in0_.data();
        const SlotId *b = in1_.data();
        const SlotId *s = in2_.data();
        size_t i = 0;
        for (const Run &r : runs_) {
            const size_t end = r.end;
            switch (CellType(r.op)) {
              case CellType::Buf:
                for (; i < end; ++i)
                    out[i] = v[a[i]];
                break;
              case CellType::Not:
                for (; i < end; ++i)
                    out[i] = Word(v[a[i]] ^ ones);
                break;
              case CellType::And2:
                for (; i < end; ++i)
                    out[i] = Word(v[a[i]] & v[b[i]]);
                break;
              case CellType::Or2:
                for (; i < end; ++i)
                    out[i] = Word(v[a[i]] | v[b[i]]);
                break;
              case CellType::Xor2:
                for (; i < end; ++i)
                    out[i] = Word(v[a[i]] ^ v[b[i]]);
                break;
              case CellType::Nand2:
                for (; i < end; ++i)
                    out[i] = Word((v[a[i]] & v[b[i]]) ^ ones);
                break;
              case CellType::Nor2:
                for (; i < end; ++i)
                    out[i] = Word((v[a[i]] | v[b[i]]) ^ ones);
                break;
              case CellType::Xnor2:
                for (; i < end; ++i)
                    out[i] = Word(v[a[i]] ^ v[b[i]] ^ ones);
                break;
              case CellType::Mux2:
                // S ? B : A, lane-wise: A with the lanes where S is set
                // flipped to B.
                for (; i < end; ++i) {
                    Word x = v[a[i]];
                    out[i] = Word(x ^ ((x ^ v[b[i]]) & v[s[i]]));
                }
                break;
              case CellType::Const0:
              case CellType::Const1:
              case CellType::Dff:
                panic("non-combinational opcode in tape stream");
            }
        }
    }

  private:
    const Netlist &nl_;

    std::vector<SlotId> slot_of_net_;   ///< NetId -> slot
    std::vector<SlotId> cell_out_slot_; ///< CellId -> slot

    SlotId first_comb_slot_ = 0;
    std::vector<SlotId> in0_, in1_, in2_;
    std::vector<Run> runs_;
    std::vector<uint8_t> feeds_logic_; ///< slot -> read by an instruction

    std::vector<DffRule> dff_rules_;
    std::vector<ConstRule> const_rules_;

    struct PortBus
    {
        std::vector<SlotId> slots;
        bool input;
    };
    std::unordered_map<std::string, PortBus> buses_;
};

} // namespace vega
