#include "campaign/wave.h"

#include <memory>
#include <optional>

#include "campaign/engine.h"
#include "common/bitvec.h"
#include "common/logging.h"
#include "cpu/batch_backend.h"
#include "cpu/iss.h"
#include "runtime/aging_library.h"
#include "workloads/kernels.h"

namespace vega::campaign {

static_assert(kWaveLanes == size_t(cpu::BatchNetlistEngine::kLanes),
              "wave.h lane count must match the batch engine");

namespace {

/** The transaction a lane has in flight during commit_round(). */
enum class Pending : uint8_t { None, Idle, Op, Read, Clear };

/**
 * Advance one lane's program until it posts exactly one backend
 * transaction (true) or stops without one (false). Mirrors the scalar
 * interleaving: every non-trapping instruction costs the module one
 * clock edge — FU instructions post their own transaction, everything
 * else posts an idle tick after executing architecturally (the tick
 * cannot feed back into ISS state, so executing first is safe).
 * Trapping instructions early-return in the ISS before touching the
 * backend, hence no post.
 */
bool
advance_program(cpu::Iss &iss, cpu::BatchNetlistEngine &eng, int lane,
                ModuleKind kind, Pending &pending)
{
    while (iss.running()) {
        cpu::FuIssue issue = iss.peek_fu_issue(kind);
        switch (issue.kind) {
          case cpu::FuIssue::Kind::None:
            iss.step_one();
            if (!iss.running() &&
                iss.stop_status() == cpu::Iss::Status::Trap)
                return false;
            eng.post_idle(lane);
            pending = Pending::Idle;
            return true;
          case cpu::FuIssue::Kind::Op:
            eng.post_op(lane, issue.op, issue.a, issue.b);
            pending = Pending::Op;
            return true;
          case cpu::FuIssue::Kind::ReadFflags:
            eng.post_read_fflags(lane);
            pending = Pending::Read;
            return true;
          case cpu::FuIssue::Kind::ClearFflags:
            eng.post_clear_fflags(lane);
            pending = Pending::Clear;
            return true;
        }
    }
    return false;
}

/** Complete a lane's pending transaction after commit_round(). */
void
inject(cpu::Iss &iss, cpu::BatchNetlistEngine &eng, int lane,
       Pending &pending)
{
    switch (pending) {
      case Pending::None:
      case Pending::Idle:
        // Idle instructions already executed in advance_program().
        break;
      case Pending::Op:
      case Pending::Read:
        iss.step_one(&eng.result(lane));
        break;
      case Pending::Clear: {
        // csrw fflags,x0 has no architectural result to consume; the
        // injected value only satisfies the split-transaction protocol.
        cpu::FuBackend::FuResult r{};
        iss.step_one(&r);
        break;
      }
    }
    pending = Pending::None;
}

/** Enable lane @p lane's fault and seed its fm_rand stream. */
void
bind_lane_fault(const WaveContext &ctx, cpu::BatchNetlistEngine &eng,
                int lane, size_t bank_index, uint64_t seed)
{
    VEGA_CHECK(bank_index < ctx.num_faults, "bank index out of range");
    BitVec en(ctx.num_faults);
    en.set(bank_index, true);
    eng.set_lane_bus("fm_en", lane, en);
    eng.configure_lane_random(lane, (*ctx.fault_random)[bank_index] != 0,
                              seed);
}

} // namespace

std::vector<char>
characterize_wave(const WaveContext &ctx,
                  const std::vector<std::pair<size_t, uint64_t>> &faults)
{
    VEGA_CHECK(ctx.tape && ctx.fault_random, "wave context incomplete");
    VEGA_CHECK(faults.size() <= size_t(cpu::BatchNetlistEngine::kLanes),
               "characterization wave exceeds lane count");
    const workloads::Kernel &kernel = representative_kernel(ctx.kind);
    cpu::BatchNetlistEngine eng(ctx.kind, ctx.tape);

    const size_t n = faults.size();
    std::vector<char> corrupts(n, 0);
    std::vector<std::unique_ptr<cpu::Iss>> iss(n);
    std::vector<Pending> pending(n, Pending::None);
    for (size_t i = 0; i < n; ++i) {
        bind_lane_fault(ctx, eng, int(i), faults[i].first,
                        faults[i].second);
        cpu::IssConfig cfg;
        cfg.max_instructions = kWorkloadWatchdog;
        iss[i] = std::make_unique<cpu::Iss>(kernel.program, cfg);
    }

    while (true) {
        for (size_t i = 0; i < n; ++i) {
            if (!iss[i])
                continue;
            if (!advance_program(*iss[i], eng, int(i), ctx.kind,
                                 pending[i])) {
                // Same verdict as scalar workload_corrupts(): any
                // non-clean stop, or a deviated stored checksum.
                corrupts[i] =
                    iss[i]->stop_status() != cpu::Iss::Status::Halted ||
                    iss[i]->read_u32(workloads::kChecksumAddr) !=
                        kernel.expected_checksum;
                iss[i].reset();
            }
        }
        if (!eng.has_posts())
            break;
        eng.commit_round();
        for (size_t i = 0; i < n; ++i)
            if (iss[i] && pending[i] != Pending::None)
                inject(*iss[i], eng, int(i), pending[i]);
    }
    return corrupts;
}

namespace {

/** One injection episode's private state within a wave. */
struct Lane
{
    const WaveJob *job = nullptr;
    std::optional<runtime::AgingLibrary> lib;
    /** Re-armed per test (Iss::load_program); freed when done. */
    std::unique_ptr<cpu::Iss> iss;
    bool in_test = false;   ///< a test is loaded in iss
    uint64_t next_slot = 0; ///< next scheduler slot to claim
    uint64_t cur_slot = 0;  ///< slot of the test in flight
    size_t cur_test = 0;    ///< suite index of the test in flight
    uint64_t tags_seen = 0; ///< dbg-tag mismatches acknowledged so far
    Pending pending = Pending::None;
    bool done = false;
    JobResult res;
};

/** Claim scheduler slots until a test dispatches; false = budget out. */
bool
start_test(const WaveContext &ctx, Lane &ln)
{
    while (ln.next_slot < ln.job->spec.max_slots) {
        uint64_t slot = ln.next_slot++;
        auto idx = ln.lib->schedule_next();
        if (!idx)
            continue;
        ln.cur_slot = slot;
        ln.cur_test = *idx;
        const std::vector<cpu::Instr> &program = (*ctx.suite)[*idx].program;
        if (ln.iss) {
            ln.iss->load_program(program);
        } else {
            cpu::IssConfig cfg;
            cfg.max_instructions = kTestWatchdog;
            ln.iss = std::make_unique<cpu::Iss>(program, cfg);
        }
        ln.in_test = true;
        return true;
    }
    return false;
}

void
finish_lane(Lane &ln, const cpu::BatchNetlistEngine &eng, int li)
{
    ln.res.tests_dispatched = ln.lib->runs();
    ln.res.sim_cycles = eng.cycles(li);
    ln.res.corrupts_workload = ln.job->corrupts;
    ln.res.escape = ln.job->corrupts && !ln.res.detected;
    ln.done = true;
    ln.iss.reset();
}

/**
 * Drive lane @p li until it posts a transaction or its job completes.
 * The slot loop, detection mapping, and tag accounting replicate the
 * reference executor's per-job AgingLibrary + NetlistEngine::run()
 * loop (tests/campaign_oracle.h) exactly.
 */
void
advance_lane(const WaveContext &ctx, cpu::BatchNetlistEngine &eng, int li,
             Lane &ln)
{
    for (;;) {
        if (!ln.in_test) {
            if (start_test(ctx, ln))
                continue;
            finish_lane(ln, eng, li);
            return;
        }
        if (ln.iss->running()) {
            if (advance_program(*ln.iss, eng, li, ctx.kind, ln.pending))
                return;
            // Stopped without posting (trap, or watchdog checked before
            // the step): fall through to the end-of-test mapping.
        }
        auto status = ln.iss->stop_status();
        runtime::Detection det = runtime::Detection::None;
        if (status != cpu::Iss::Status::Halted)
            det = runtime::Detection::Stall;
        else if (ln.iss->reg(31) != 0)
            det = runtime::Detection::Mismatch;
        else if (eng.tag_mismatches(li) > ln.tags_seen)
            det = runtime::Detection::TagAnomaly;
        ln.tags_seen = eng.tag_mismatches(li);
        ln.lib->record_result(ln.cur_test, det);
        ln.in_test = false;
        if (det != runtime::Detection::None) {
            ln.res.detected = true;
            ln.res.kind = det;
            ln.res.slots_to_detect = ln.cur_slot + 1;
            finish_lane(ln, eng, li);
            return;
        }
    }
}

} // namespace

std::vector<JobResult>
run_wave(const WaveContext &ctx, const std::vector<WaveJob> &jobs)
{
    VEGA_CHECK(ctx.tape && ctx.fault_random, "wave context incomplete");
    VEGA_CHECK(ctx.suite && !ctx.suite->empty(),
               "wave needs a non-empty suite");
    VEGA_CHECK(jobs.size() <= size_t(cpu::BatchNetlistEngine::kLanes),
               "injection wave exceeds lane count");
    cpu::BatchNetlistEngine eng(ctx.kind, ctx.tape);

    std::vector<Lane> lanes(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        Lane &ln = lanes[i];
        ln.job = &jobs[i];
        const JobSpec &spec = jobs[i].spec;
        ln.res.id = spec.id;
        ln.res.pair_index = spec.pair_index;
        ln.res.constant = spec.constant;
        ln.res.policy = spec.policy;
        bind_lane_fault(ctx, eng, int(i), jobs[i].bank_index, spec.seed);
        runtime::AgingLibraryOptions opt;
        opt.policy = spec.policy;
        opt.probability = spec.probability;
        opt.seed = spec.seed;
        ln.lib.emplace(ctx.suite, opt);
    }

    while (true) {
        for (size_t i = 0; i < lanes.size(); ++i)
            if (!lanes[i].done)
                advance_lane(ctx, eng, int(i), lanes[i]);
        if (!eng.has_posts())
            break;
        eng.commit_round();
        for (size_t i = 0; i < lanes.size(); ++i)
            if (!lanes[i].done && lanes[i].pending != Pending::None)
                inject(*lanes[i].iss, eng, int(i), lanes[i].pending);
    }

    std::vector<JobResult> out;
    out.reserve(lanes.size());
    for (Lane &ln : lanes) {
        VEGA_CHECK(ln.done, "wave lane did not complete");
        out.push_back(ln.res);
    }
    return out;
}

} // namespace vega::campaign
