#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/journal.h"
#include "campaign/shard.h"
#include "campaign/thread_pool.h"
#include "campaign/wave.h"
#include "common/fs.h"
#include "common/logging.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::campaign {

namespace {

/**
 * Per-worker job counter (`campaign.jobs.w<N>`), resolved once per
 * worker via thread-local caching — the registry lookup (a map probe
 * under a mutex) only happens on each worker's first job.
 */
obs::Counter &
worker_jobs_counter()
{
    static obs::Counter &fallback = obs::counter("campaign.jobs.main");
    thread_local obs::Counter *c = [] {
        int w = ThreadPool::current_worker();
        if (w < 0)
            return &fallback;
        return &obs::counter("campaign.jobs.w" + std::to_string(w));
    }();
    return *c;
}

/** what() of the exception in flight; call only inside a catch. */
std::string
current_error()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-standard exception";
    }
}

/**
 * Resolve job @p id from its splitmix64 stream. Pairs are covered
 * round-robin (every pair in the working set gets injected); the
 * constant, policy, and downstream seed are Monte Carlo draws.
 */
JobSpec
make_spec(const CampaignConfig &cfg, size_t npairs, uint64_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.pair_index = size_t(id % npairs);
    uint64_t stream = job_stream(cfg.seed, id);
    spec.constant_index =
        size_t(splitmix64(stream) % cfg.constants.size());
    spec.constant = cfg.constants[spec.constant_index];
    spec.policy = cfg.policies[splitmix64(stream) % cfg.policies.size()];
    spec.probability = cfg.probability;
    spec.seed = splitmix64(stream);
    spec.max_slots = cfg.max_slots;
    return spec;
}

/**
 * One memory-module injection: the classified wrong-address fault
 * @p cls mounted as the ISS's data-memory backend, the aging library
 * run slot by slot. A memory fault has no netlist to batch over, so a
 * memory chunk runs its jobs one after another.
 */
JobResult
run_march_job(const mem::MemFaultClass &cls,
              const std::vector<runtime::TestCase> &suite,
              const WaveJob &job)
{
    const JobSpec &spec = job.spec;
    JobResult res;
    res.id = spec.id;
    res.pair_index = spec.pair_index;
    res.constant = spec.constant;
    res.policy = spec.policy;

    mem::MarchEngine engine(cls);
    runtime::AgingLibraryOptions opt;
    opt.policy = spec.policy;
    opt.probability = spec.probability;
    opt.seed = spec.seed;
    runtime::AgingLibrary lib(suite, opt);

    for (uint64_t slot = 0; slot < spec.max_slots; ++slot) {
        runtime::Detection d = lib.run_next(engine);
        if (d != runtime::Detection::None) {
            res.detected = true;
            res.kind = d;
            res.slots_to_detect = slot + 1;
            break;
        }
    }
    res.tests_dispatched = lib.runs();
    res.sim_cycles = engine.cycles();
    res.corrupts_workload = job.corrupts;
    res.escape = job.corrupts && !res.detected;
    return res;
}

/** Submit @p items to @p pool in id-ordered chunks of kWaveLanes. */
template <class T, class Task>
void
submit_chunks(ThreadPool &pool, const std::vector<T> &items, Task task)
{
    for (size_t base = 0; base < items.size(); base += kWaveLanes) {
        size_t end = std::min(items.size(), base + kWaveLanes);
        std::vector<T> chunk(items.begin() + long(base),
                             items.begin() + long(end));
        pool.submit([task, chunk = std::move(chunk)] { task(chunk); });
    }
}

} // namespace

Expected<CampaignReport>
try_run_campaign(const HwModule &module,
                 const std::vector<sta::EndpointPair> &pairs,
                 const std::vector<runtime::TestCase> &suite,
                 const CampaignConfig &config)
{
    if (pairs.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs endpoint pairs");
    if (suite.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs a non-empty suite");
    if (config.constants.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs constants");
    if (config.policies.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs policies");
    if (config.num_jobs == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs jobs");
    if (config.num_shards == 0 ||
        config.shard_id >= config.num_shards)
        return make_error(ErrorCode::InvalidArgument,
                          "shard id " + std::to_string(config.shard_id) +
                              " out of range for " +
                              std::to_string(config.num_shards) +
                              " shards");

    CampaignConfig cfg = config;
    if (cfg.max_slots == 0)
        cfg.max_slots = 2 * suite.size();
    size_t npairs = std::min(cfg.max_pairs, pairs.size());
    size_t nconst = cfg.constants.size();
    int max_attempts = std::max(1, cfg.max_job_attempts);

    JournalHeader header;
    header.module = module_kind_name(module.kind);
    header.seed = cfg.seed;
    header.num_jobs = cfg.num_jobs;
    header.num_pairs = npairs;
    header.num_constants = nconst;
    header.num_policies = cfg.policies.size();
    header.max_slots = cfg.max_slots;
    header.suite_size = suite.size();
    header.probability = cfg.probability;
    header.num_shards = cfg.num_shards;
    header.shard_id = cfg.shard_id;
    ShardSpec shard{cfg.num_shards, cfg.shard_id};

    // Results keyed by job id; `skip` marks jobs already settled by a
    // prior run (completed or quarantined — quarantine is sticky).
    std::vector<std::optional<JobResult>> done(cfg.num_jobs);
    std::vector<FailedJob> failed;
    std::vector<char> skip(cfg.num_jobs, 0);

    JournalWriter journal;
    if (!cfg.journal_path.empty()) {
        JournalState prior;
        const JournalState *prior_ptr = nullptr;
        if (cfg.resume && file_exists(cfg.journal_path)) {
            Expected<JournalState> st = read_journal(cfg.journal_path);
            if (!st)
                return st.error();
            if (!(st->header == header))
                return make_error(
                    ErrorCode::JournalMismatch,
                    cfg.journal_path + ": journal '" +
                        st->header.to_string() +
                        "' was written by a different campaign "
                        "configuration ('" +
                        header.to_string() + "')");
            prior = std::move(*st);
            prior_ptr = &prior;
            for (const JobResult &r : prior.completed)
                if (r.id < cfg.num_jobs && !skip[r.id]) {
                    done[r.id] = r;
                    skip[r.id] = 1;
                }
            for (const FailedJob &f : prior.failed)
                if (f.id < cfg.num_jobs && !skip[f.id]) {
                    failed.push_back(f);
                    skip[f.id] = 1;
                }
        }
        Expected<void> opened =
            journal.open(cfg.journal_path, header, prior_ptr,
                         cfg.journal_flush_every);
        if (!opened)
            return opened.error();
    }

    // The work list: jobs this shard owns and no prior run has settled.
    // Specs are pure functions of (seed, id), so shards can compute
    // them independently and the union over shards is exactly the
    // unsharded job set.
    std::vector<JobSpec> todo;
    todo.reserve(size_t(shard_job_count(shard, cfg.num_jobs)));
    auto fault_index = [nconst](const JobSpec &s) {
        return s.pair_index * nconst + s.constant_index;
    };
    std::vector<char> needed(npairs * nconst, 0);
    for (uint64_t id = 0; id < cfg.num_jobs; ++id) {
        if (!shard_owns(shard, id) || skip[id])
            continue;
        todo.push_back(make_spec(cfg, npairs, id));
        needed[fault_index(todo.back())] = 1;
    }

    auto t0 = std::chrono::steady_clock::now();
    ThreadPool pool(cfg.threads);

    // The module kind's batch pair, picked once. `characterize` maps up
    // to kWaveLanes fault indices to their corrupts verdicts; `run`
    // maps up to kWaveLanes jobs to their results, in input order. Both
    // throw if any item fails. A functional unit runs both as
    // BatchSimulator waves over one fault-bank netlist that splices in
    // every needed fault (disabled faults are exact pass-throughs),
    // compiled to one shared tape. A memory module has no netlist to
    // batch: its pair classifies each fault's slow decode gate and runs
    // each job on its own MarchEngine. WaveJob::bank_index is the
    // fault's bank position, or for a memory module its fault index.
    std::function<std::vector<char>(const std::vector<size_t> &)>
        characterize;
    std::function<std::vector<JobResult>(const std::vector<WaveJob> &)>
        run;
    std::vector<size_t> bank_pos(npairs * nconst, SIZE_MAX);
    std::vector<char> corrupts(npairs * nconst, 0);
    std::vector<std::string> char_error(npairs * nconst);
    std::vector<mem::MemFaultClass> mem_faults;
    lift::FaultBank bank;
    WaveContext wave_ctx;
    if (is_mem_module(module.kind)) {
        mem_faults.resize(npairs * nconst);
        for (size_t idx = 0; idx < bank_pos.size(); ++idx)
            bank_pos[idx] = idx;
        characterize = [&](const std::vector<size_t> &faults) {
            std::vector<char> verdicts;
            for (size_t k = 0; k < faults.size(); ++k) {
                // Decoder lifting: the constant axis does not apply to
                // slow-gate faults; every (pair, C) slot carries the
                // pair's classified class, so a pair's later slots
                // (adjacent in id order) copy its first.
                size_t idx = faults[k];
                if (k > 0 && faults[k - 1] / nconst == idx / nconst) {
                    mem_faults[idx] = mem_faults[faults[k - 1]];
                    verdicts.push_back(verdicts.back());
                    continue;
                }
                CellId gate = mem::pick_decoder_gate(
                    module.netlist, pairs[idx / nconst].worst);
                if (gate == kInvalidId)
                    throw std::runtime_error(
                        "no decode gate on worst path");
                mem_faults[idx] =
                    mem::classify_slow_gate(module.netlist, gate);
                verdicts.push_back(
                    mem::mem_workload_corrupts(mem_faults[idx]));
            }
            return verdicts;
        };
        run = [&](const std::vector<WaveJob> &jobs) {
            std::vector<JobResult> results;
            for (const WaveJob &j : jobs)
                results.push_back(
                    run_march_job(mem_faults[j.bank_index], suite, j));
            return results;
        };
    } else {
        characterize = [&](const std::vector<size_t> &faults) {
            std::vector<std::pair<size_t, uint64_t>> req;
            for (size_t idx : faults)
                req.push_back(
                    {bank_pos[idx], job_stream(~cfg.seed, uint64_t(idx))});
            return characterize_wave(wave_ctx, req);
        };
        run = [&](const std::vector<WaveJob> &jobs) {
            return run_wave(wave_ctx, jobs);
        };
        std::vector<lift::FailureModelSpec> bank_specs;
        for (size_t idx = 0; idx < needed.size(); ++idx)
            if (needed[idx]) {
                bank_pos[idx] = bank_specs.size();
                bank_specs.push_back(lift::fault_spec(
                    pairs[idx / nconst], cfg.constants[idx % nconst]));
            }
        if (!bank_specs.empty()) {
            try {
                VEGA_SPAN("campaign.build_bank");
                bank = lift::build_fault_bank(module.netlist, bank_specs);
                wave_ctx.kind = module.kind;
                wave_ctx.tape =
                    std::make_shared<const EvalTape>(bank.netlist);
                wave_ctx.num_faults = bank.num_faults;
                wave_ctx.fault_random = &bank.fault_random;
                wave_ctx.suite = &suite;
            } catch (...) {
                // No bank, no verdicts: every needed fault's jobs
                // quarantine (and are counted) rather than vanish.
                std::string what = "fault bank: " + current_error();
                for (size_t idx = 0; idx < needed.size(); ++idx)
                    if (needed[idx])
                        char_error[idx] = what;
            }
        }
    }

    std::vector<size_t> pending_faults;
    for (size_t idx = 0; idx < needed.size(); ++idx)
        if (needed[idx] && char_error[idx].empty())
            pending_faults.push_back(idx);
    std::optional<ProgressMeter> meter;
    if (cfg.progress || cfg.progress_sink)
        meter.emplace(pending_faults.size() + todo.size(),
                      cfg.progress_interval, cfg.progress_sink);

    // Characterization pass: once per unique (pair, constant) fault —
    // never per job — probe whether the fault corrupts the
    // representative workload. Only faults some pending job of this
    // shard injects are probed, so shards (and resumed runs) don't redo
    // the whole matrix. A chunk that throws is re-run one fault per
    // chunk; a fault that still throws poisons only the jobs that
    // inject it, which quarantine instead of crashing the run.
    auto characterize_chunk = [&](const std::vector<size_t> &chunk) {
        VEGA_SPAN("campaign.characterize");
        auto probe = [&](const std::vector<size_t> &faults) {
            std::vector<char> verdicts = characterize(faults);
            for (size_t i = 0; i < faults.size(); ++i)
                corrupts[faults[i]] = verdicts[i];
        };
        try {
            probe(chunk);
        } catch (...) {
            for (size_t idx : chunk) {
                try {
                    probe({idx});
                } catch (...) {
                    char_error[idx] = current_error();
                }
            }
        }
        if (meter)
            for (size_t i = 0; i < chunk.size(); ++i)
                meter->job_done(0);
    };
    // The clock starts after the pool and the fault bank are built;
    // the bank build has its own campaign.build_bank span.
    auto t_char = std::chrono::steady_clock::now();
    submit_chunks(pool, pending_faults, characterize_chunk);
    pool.wait_idle();
    double characterize_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_char)
            .count();

    // Injection pass: the Monte Carlo jobs proper. Results land in
    // slots keyed by job id, so completion order is irrelevant. A job
    // that throws retries with a fresh (deterministically derived)
    // seed; one that fails every attempt is quarantined. Every settled
    // job is checkpointed to the journal before the campaign moves on.
    auto t_inject = std::chrono::steady_clock::now();
    std::mutex state_mu;
    std::mutex journal_mu;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> journal_nanos{0};
    size_t completed_this_run = 0;
    size_t settled_this_run = 0;
    std::optional<VegaError> journal_error;

    // Journal writes run under their own mutex, off the hot state_mu:
    // a group-commit append (and its fsync) must not block workers
    // that only need to settle counters. Record order across threads
    // is arbitrary, which is fine — replay is keyed by job id.
    auto journal_record = [&](const auto &record) {
        if (!journal.is_open())
            return;
        auto jt0 = std::chrono::steady_clock::now();
        {
            std::lock_guard<std::mutex> lk(journal_mu);
            if (!journal_error) {
                Expected<void> w = journal.record(record);
                if (!w)
                    journal_error = w.error();
            }
        }
        journal_nanos.fetch_add(
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - jt0)
                         .count()),
            std::memory_order_relaxed);
    };

    auto settle_result = [&](const JobResult &jr) {
        bool do_kill = false;
        {
            std::lock_guard<std::mutex> lk(state_mu);
            done[jr.id] = jr;
            ++settled_this_run;
            ++completed_this_run;
            if (cfg.stop_after_jobs &&
                completed_this_run >= cfg.stop_after_jobs)
                stop.store(true, std::memory_order_relaxed);
            if (cfg.kill_after_jobs &&
                completed_this_run >= cfg.kill_after_jobs)
                do_kill = true;
        }
        journal_record(jr);
        // The real thing, not a simulation: SIGKILL is uncatchable, so
        // buffered journal records die with the process exactly as in
        // a production OOM kill. The trigger lands mid-chunk, with
        // sibling jobs' records still unflushed.
        if (do_kill)
            std::raise(SIGKILL);
        if (meter)
            meter->job_done(jr.sim_cycles);
    };

    auto settle_failed = [&](const FailedJob &f) {
        {
            std::lock_guard<std::mutex> lk(state_mu);
            failed.push_back(f);
            ++settled_this_run;
        }
        journal_record(f);
        if (meter)
            meter->job_done(0);
    };

    // A failed attempt: count the retry and keep the in-flight error.
    auto attempt_failed = [&](int attempt) {
        static obs::Counter &retry_counter =
            obs::counter("campaign.retries");
        retry_counter.inc();
        return make_error(ErrorCode::JobFailed,
                          "attempt " + std::to_string(attempt) + ": " +
                              current_error());
    };

    // The retry ladder: @p job's attempts from @p first on, each a
    // one-lane chunk, the hook called before each. Attempt k > 1 draws
    // a fresh downstream seed, still a pure function of (campaign seed,
    // job id, k). A job that fails every attempt is quarantined with
    // the last attempt's error.
    auto run_ladder = [&](WaveJob job, int first, VegaError last) {
        const JobSpec spec = job.spec;
        for (int attempt = first; attempt <= max_attempts; ++attempt) {
            if (attempt > 1) {
                uint64_t stream = job_stream(
                    cfg.seed ^
                        (0x9e3779b97f4a7c15ull * uint64_t(attempt - 1)),
                    spec.id);
                job.spec.seed = splitmix64(stream);
            }
            try {
                if (attempt > 1 && cfg.job_fault_hook)
                    cfg.job_fault_hook(spec, attempt);
                JobResult jr = run({job}).front();
                jr.attempts = uint32_t(attempt);
                settle_result(jr);
                return;
            } catch (...) {
                last = attempt_failed(attempt);
            }
        }
        FailedJob f;
        f.id = spec.id;
        f.pair_index = spec.pair_index;
        f.attempts = uint32_t(max_attempts);
        f.error = last;
        settle_failed(f);
    };

    // Dispatch: pending jobs in id-ordered chunks of up to kWaveLanes,
    // one pool task each, all sharing the read-only bank tape. A chunk
    // is attempt 1 of each of its jobs: the hook runs before a job's
    // lane is bound, and a job it fails enters the ladder at attempt 2.
    // If a multi-lane chunk throws, each of its jobs re-runs attempt 1
    // alone. Jobs settle one at a time in id order, so stop/kill
    // semantics stay per job: a stop flag raised mid-chunk drops the
    // chunk's unsettled jobs, which a resume simply re-runs.
    auto wave_job = [&](const JobSpec &s) {
        size_t idx = fault_index(s);
        return WaveJob{s, bank_pos[idx], corrupts[idx] != 0};
    };
    auto run_chunk = [&](const std::vector<JobSpec> &specs) {
        if (stop.load(std::memory_order_relaxed))
            return;
        VEGA_SPAN("campaign.wave");
        // Per spec: the attempt its ladder starts at (0 = its result
        // comes from the chunk) and the error that sent it there.
        std::vector<int> ladder_from(specs.size(), 0);
        std::vector<VegaError> last(specs.size());
        std::vector<size_t> lane_spec;
        std::vector<WaveJob> lanes;
        for (size_t i = 0; i < specs.size(); ++i) {
            if (!char_error[fault_index(specs[i])].empty())
                continue;
            try {
                if (cfg.job_fault_hook)
                    cfg.job_fault_hook(specs[i], 1);
                lane_spec.push_back(i);
                lanes.push_back(wave_job(specs[i]));
            } catch (...) {
                ladder_from[i] = 2;
                last[i] = attempt_failed(1);
            }
        }
        std::vector<JobResult> results;
        try {
            results = run(lanes);
        } catch (...) {
            // A one-lane chunk's throw is its job's failed attempt 1.
            int from = lanes.size() == 1 ? 2 : 1;
            VegaError err = from == 2 ? attempt_failed(1) : VegaError{};
            for (size_t i : lane_spec) {
                ladder_from[i] = from;
                last[i] = err;
            }
        }
        size_t ri = 0;
        for (size_t i = 0; i < specs.size(); ++i) {
            if (stop.load(std::memory_order_relaxed))
                return;
            VEGA_SPAN("campaign.job");
            static obs::Counter &jobs_counter =
                obs::counter("campaign.jobs");
            jobs_counter.inc();
            worker_jobs_counter().inc();
            const std::string &why = char_error[fault_index(specs[i])];
            if (!why.empty()) {
                FailedJob f;
                f.id = specs[i].id;
                f.pair_index = specs[i].pair_index;
                f.attempts = 0;
                f.error = make_error(ErrorCode::JobFailed,
                                     "characterization: " + why);
                settle_failed(f);
            } else if (ladder_from[i]) {
                run_ladder(wave_job(specs[i]), ladder_from[i], last[i]);
            } else {
                settle_result(results[ri++]);
            }
        }
    };
    submit_chunks(pool, todo, run_chunk);
    pool.wait_idle();
    double simulate_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_inject)
            .count();
    if (journal.is_open() && !journal_error) {
        // Every owned job settled => the shard is complete: seal the
        // journal with its integrity trailer so the aggregator will
        // accept it. An early stop leaves the journal trailerless —
        // resumable, but rejected at aggregation as shard-incomplete.
        auto jt0 = std::chrono::steady_clock::now();
        bool complete = settled_this_run == todo.size();
        Expected<void> sealed =
            complete ? journal.finalize() : journal.sync();
        if (!sealed)
            journal_error = sealed.error();
        journal_nanos.fetch_add(
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - jt0)
                         .count()),
            std::memory_order_relaxed);
    }
    if (journal_error)
        return *journal_error;

    auto t_agg = std::chrono::steady_clock::now();
    std::vector<JobResult> results;
    results.reserve(cfg.num_jobs);
    for (uint64_t id = 0; id < cfg.num_jobs; ++id)
        if (done[id])
            results.push_back(*done[id]);

    CampaignReport report = aggregate_report(results, npairs, failed);
    report.module = module_kind_name(module.kind);
    report.seed = cfg.seed;
    report.max_slots = cfg.max_slots;
    report.probability = cfg.probability;
    report.suite_size = suite.size();
    report.num_pairs = npairs;

    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    report.timing.wall_seconds = wall;
    report.timing.jobs_per_sec =
        wall > 0 ? double(results.size()) / wall : 0.0;
    report.timing.sims_per_sec =
        wall > 0 ? double(report.total_sim_cycles) / wall : 0.0;
    report.timing.threads = pool.size();
    report.timing.steals = pool.steals();
    report.timing.peak_queue_depth = pool.peak_queued();
    report.timing.journal_flushes = journal.flushes();
    report.timing.journal_bytes = journal.bytes_written();
    report.timing.characterize_seconds = characterize_wall;
    report.timing.simulate_seconds = simulate_wall;
    report.timing.journal_seconds =
        double(journal_nanos.load(std::memory_order_relaxed)) * 1e-9;
    report.timing.aggregate_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_agg)
            .count();
    if (meter)
        meter->finish();
    return report;
}

CampaignReport
run_campaign(const HwModule &module,
             const std::vector<sta::EndpointPair> &pairs,
             const std::vector<runtime::TestCase> &suite,
             const CampaignConfig &config)
{
    Expected<CampaignReport> report =
        try_run_campaign(module, pairs, suite, config);
    VEGA_CHECK(report.ok(), "campaign: ", report.error().to_string());
    return std::move(report).value();
}

CampaignReport
run_campaign(const HwModule &module, const vega::WorkflowResult &wf,
             const CampaignConfig &config)
{
    std::vector<sta::EndpointPair> pairs;
    pairs.reserve(wf.lift.pairs.size());
    for (const auto &pr : wf.lift.pairs)
        pairs.push_back(pr.pair);
    return run_campaign(module, pairs, wf.suite, config);
}

} // namespace vega::campaign
