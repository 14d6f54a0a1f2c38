/**
 * @file
 * 64-lane gate-level functional-unit engine for wave execution.
 *
 * The scalar NetlistBackend drives one module instance one ISS
 * instruction at a time. This engine drives 64 *independent* module
 * instances — one BatchSimulator lane each, typically over a fault-bank
 * netlist (lift::build_fault_bank) with a different fault enabled per
 * lane — through the same per-instruction protocol, one shared tape
 * pass per clock edge.
 *
 * Per round, each active lane posts exactly one transaction (an op, an
 * idle tick, an fflags read, or a flags-clear pulse) and commit_round()
 * advances every lane together:
 *
 *   1. a pre-tick peek serving every ReadFflags lane (the scalar
 *      read_fflags() peeks *before* its idle tick);
 *   2. the one real edge every participant consumes, with per-lane
 *      valid/clear pulses and per-lane fm_rand streams;
 *   3. a post-tick peek serving every Op lane (the scalar
 *      alu()/fpu()/mdu() peek their results one edge ahead).
 *
 * The scalar backend peeks by taking a speculative edge and rolling it
 * back. Every output it peeks (r, flags, valid_out, ack, dbg_out) is a
 * register Q, so its value one edge ahead is its D pin's settled value
 * now: this engine reads the D pins (resolved once at construction)
 * instead, with no edge, no plane copy and no restore. Only the
 * speculative fm_rand draw of a peeked random lane is rewound, so the
 * committed timeline — including each lane's fm_rand draw sequence and
 * cycle count (a peek still counts as a cycle) — is bit-identical to 64
 * scalar NetlistBackends. Lanes are independent by construction (bank
 * fault muxes are exact pass-throughs when disabled), so a lane's
 * behaviour does not depend on which other lanes share its wave.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "cpu/iss.h"
#include "rtl/module.h"
#include "sim/batch_sim.h"

namespace vega::cpu {

class BatchNetlistEngine
{
  public:
    static constexpr int kLanes = BatchSimulator::kLanes;

    /** @p tape: compiled fault-bank (or plain module) netlist tape. */
    BatchNetlistEngine(ModuleKind kind, std::shared_ptr<const EvalTape> tape);

    ModuleKind kind() const { return kind_; }

    /** Drive an input bus in one lane (fault-bank "fm_en" one-hots). */
    void set_lane_bus(const std::string &bus, int lane, const BitVec &value);

    /**
     * Seed lane @p lane's fm_rand stream; @p random says whether this
     * lane's enabled fault reads "fm_rand" at all (non-random lanes
     * never draw, exactly like a scalar backend without the input).
     */
    void configure_lane_random(int lane, bool random, uint64_t seed);

    /// @name Per-round transaction posting (at most one per lane)
    /// @{
    void post_op(int lane, uint8_t op, uint32_t a, uint32_t b);
    void post_idle(int lane);
    void post_read_fflags(int lane);
    void post_clear_fflags(int lane);
    /// @}

    /** True if any lane posted a transaction this round. */
    bool has_posts() const { return participant_mask_ != 0; }

    /** Advance every posted lane one protocol round (see file docs). */
    void commit_round();

    /** Lane @p lane's result from the last committed Op / ReadFflags. */
    const FuBackend::FuResult &result(int lane) const
    {
        return results_[size_t(lane)];
    }
    /** Module clock cycles lane @p lane consumed (peeks included). */
    uint64_t cycles(int lane) const { return cycles_[size_t(lane)]; }
    /** Lane-local dbg_out tag mismatches (FPU transaction protocol). */
    uint64_t tag_mismatches(int lane) const
    {
        return tag_mismatches_[size_t(lane)];
    }

  private:
    void draw_rand(uint64_t lanes_mask);
    /** Draw a peek's fm_rand bits; returns the lanes to rewind. */
    uint64_t speculative_draw(uint64_t lanes_mask);
    void rewind_rand(uint64_t drawn);
    uint64_t bit_of(uint64_t plane, int lane) const
    {
        return (plane >> lane) & 1;
    }

    ModuleKind kind_;
    BatchSimulator sim_;
    bool has_random_input_ = false;

    // Cached input bus nets and the D nets of the peeked output
    // registers (avoids per-round name lookups).
    std::vector<NetId> a_nets_, b_nets_, op_nets_;
    std::vector<NetId> r_d_nets_, flags_d_nets_;
    NetId valid_net_ = kInvalidId, clear_net_ = kInvalidId;
    NetId valid_out_d_net_ = kInvalidId, ack_d_net_ = kInvalidId;
    NetId dbg_d_net_ = kInvalidId, rand_net_ = kInvalidId;
    std::vector<uint64_t> flag_planes_; ///< peek scratch

    // Held input planes (idle lanes keep their previous operands, as
    // scalar backends do) and the per-round pulse masks.
    std::vector<uint64_t> a_planes_, b_planes_, op_planes_;
    uint64_t rand_plane_ = 0;
    uint64_t participant_mask_ = 0;
    uint64_t op_mask_ = 0;
    uint64_t read_mask_ = 0;
    uint64_t clear_mask_ = 0;
    uint64_t random_mask_ = 0;

    std::vector<Rng> rngs_;
    std::vector<Rng> rngs_save_; ///< pre-peek RNGs of the drawn lanes

    std::vector<FuBackend::FuResult> results_;
    std::vector<uint64_t> cycles_;
    std::vector<uint64_t> tag_mismatches_;
    uint64_t expected_tag_mask_ = 0; ///< bit L = lane L's predicted parity
};

} // namespace vega::cpu
