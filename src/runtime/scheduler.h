/**
 * @file
 * Test scheduling policies for the software aging library (§3.4.1).
 *
 * The generated library supports running its test cases sequentially, in
 * a random order (reshuffled each epoch so every test still runs), or
 * probabilistically (each slot fires with probability p, the knob
 * profile-guided integration uses to cap overhead, §3.4.2).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace vega::runtime {

enum class SchedulePolicy : uint8_t { Sequential, Random, Probabilistic };

const char *schedule_policy_name(SchedulePolicy p);

class Scheduler
{
  public:
    /**
     * @param probability dispatch probability for the probabilistic
     *        policy, clamped into [0, 1] (NaN ⇒ 0). p = 0 never
     *        dispatches; p = 1 dispatches every slot, matching the
     *        sequential policy's counts.
     */
    Scheduler(size_t num_tests, SchedulePolicy policy,
              double probability = 1.0, uint64_t seed = 1);

    /**
     * Index of the test to run in this slot, or nullopt when the
     * probabilistic policy skips the slot.
     */
    std::optional<size_t> next();

    /** Slots elapsed (including skipped ones). */
    uint64_t slots() const { return slots_; }
    /** Tests actually dispatched. */
    uint64_t dispatched() const { return dispatched_; }

  private:
    void reshuffle();

    size_t n_;
    SchedulePolicy policy_;
    double probability_;
    Rng rng_;
    std::vector<size_t> order_;
    size_t cursor_ = 0;
    uint64_t slots_ = 0;
    uint64_t dispatched_ = 0;
};

} // namespace vega::runtime
