/**
 * @file
 * Test-only reference for the campaign executor: the scalar per-job
 * campaign that try_run_campaign() must reproduce byte for byte.
 *
 * Every fault is characterized on its own failing netlist
 * (lift::build_failing_netlist + scalar workload_corrupts), and every
 * job mounts that netlist on a standalone NetlistEngine — or, for a
 * memory module, the classified wrong-address fault on a MarchEngine —
 * and runs the aging library slot by slot. It has no journal, shards,
 * retries or threads: jobs run in id order and aggregate through
 * aggregate_report(). Because nothing here shares a tape or a lane
 * with anything else, a to_json(false) diff against the wave executor
 * pins lane binding, per-lane seed streams and wave-composition
 * independence end to end.
 */
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/engine.h"
#include "lift/failure_model.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"

namespace vega::campaign::oracle {

/**
 * Resolve job @p id from its splitmix64 stream. Pairs are covered
 * round-robin (every pair in the working set gets injected); the
 * constant, policy, and downstream seed are Monte Carlo draws.
 */
inline JobSpec
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
 * The downstream seed of job @p id's attempt `failed_attempt + 1`,
 * after attempt @p failed_attempt (1-based) threw: a fresh draw that
 * is still a pure function of (campaign seed, job id, attempt).
 */
inline uint64_t
retry_seed(uint64_t campaign_seed, uint64_t id, int failed_attempt)
{
    uint64_t stream = job_stream(
        campaign_seed ^ (0x9e3779b97f4a7c15ull * uint64_t(failed_attempt)),
        id);
    return splitmix64(stream);
}

/**
 * One Monte Carlo injection. Functional-unit campaigns mount the
 * failing netlist as the ISS's unit; memory campaigns mount the
 * classified wrong-address fault as the ISS's data-memory backend
 * (@p mem_cls, ignored otherwise).
 */
inline JobResult
run_job(ModuleKind kind, const lift::FailingNetlist &failing,
        const mem::MemFaultClass &mem_cls,
        const std::vector<runtime::TestCase> &suite, const JobSpec &spec,
        bool corrupts)
{
    JobResult res;
    res.id = spec.id;
    res.pair_index = spec.pair_index;
    res.constant = spec.constant;
    res.policy = spec.policy;

    std::optional<NetlistEngine> netlist_engine;
    std::optional<mem::MarchEngine> march_engine;
    runtime::Engine *engine;
    if (is_mem_module(kind)) {
        march_engine.emplace(mem_cls);
        engine = &*march_engine;
    } else {
        netlist_engine.emplace(kind, failing.netlist,
                               failing.has_random_input, spec.seed);
        engine = &*netlist_engine;
    }

    runtime::AgingLibraryOptions opt;
    opt.policy = spec.policy;
    opt.probability = spec.probability;
    opt.seed = spec.seed;
    runtime::AgingLibrary lib(suite, opt);

    for (uint64_t slot = 0; slot < spec.max_slots; ++slot) {
        runtime::Detection d = lib.run_next(*engine);
        if (d != runtime::Detection::None) {
            res.detected = true;
            res.kind = d;
            res.slots_to_detect = slot + 1;
            break;
        }
    }
    res.tests_dispatched = lib.runs();
    res.sim_cycles = netlist_engine ? netlist_engine->cycles()
                                    : march_engine->cycles();
    res.corrupts_workload = corrupts;
    res.escape = corrupts && !res.detected;
    return res;
}

/**
 * The campaign of @p config, run scalar and in id order. Shard,
 * journal, thread and retry settings are ignored: the result is the
 * report of a straight, single-process, fault-free run.
 */
inline CampaignReport
run_campaign_scalar(const HwModule &module,
                    const std::vector<sta::EndpointPair> &pairs,
                    const std::vector<runtime::TestCase> &suite,
                    const CampaignConfig &config)
{
    CampaignConfig cfg = config;
    if (cfg.max_slots == 0)
        cfg.max_slots = 2 * suite.size();
    size_t npairs = std::min(cfg.max_pairs, pairs.size());
    size_t nconst = cfg.constants.size();

    std::vector<char> needed(npairs * nconst, 0);
    for (uint64_t id = 0; id < cfg.num_jobs; ++id) {
        JobSpec spec = make_spec(cfg, npairs, id);
        needed[spec.pair_index * nconst + spec.constant_index] = 1;
    }

    // Characterization: once per (pair, constant) fault some job
    // injects. A fault that throws quarantines its jobs.
    std::vector<lift::FailingNetlist> faults(npairs * nconst);
    std::vector<mem::MemFaultClass> mem_faults(npairs * nconst);
    std::vector<char> corrupts(npairs * nconst, 0);
    std::vector<std::string> char_error(npairs * nconst);
    for (size_t pi = 0; pi < npairs; ++pi) {
        for (size_t ci = 0; ci < nconst; ++ci) {
            size_t idx = pi * nconst + ci;
            if (!needed[idx])
                continue;
            try {
                if (is_mem_module(module.kind)) {
                    // Decoder lifting: the constant axis does not
                    // apply to slow-gate faults; every (pair, C) slot
                    // carries the pair's classified class.
                    CellId gate = mem::pick_decoder_gate(
                        module.netlist, pairs[pi].worst);
                    if (gate == kInvalidId)
                        throw std::runtime_error(
                            "no decode gate on worst path");
                    mem_faults[idx] =
                        mem::classify_slow_gate(module.netlist, gate);
                    corrupts[idx] =
                        mem::mem_workload_corrupts(mem_faults[idx]);
                } else {
                    faults[idx] = lift::build_failing_netlist(
                        module.netlist,
                        lift::fault_spec(pairs[pi], cfg.constants[ci]));
                    corrupts[idx] = workload_corrupts(
                        module.kind, faults[idx].netlist,
                        faults[idx].has_random_input,
                        job_stream(~cfg.seed, uint64_t(idx)));
                }
            } catch (const std::exception &e) {
                char_error[idx] = e.what();
            }
        }
    }

    std::vector<JobResult> results;
    std::vector<FailedJob> failed;
    for (uint64_t id = 0; id < cfg.num_jobs; ++id) {
        JobSpec spec = make_spec(cfg, npairs, id);
        size_t idx = spec.pair_index * nconst + spec.constant_index;
        if (!char_error[idx].empty()) {
            FailedJob f;
            f.id = id;
            f.pair_index = spec.pair_index;
            f.attempts = 0;
            f.error = make_error(ErrorCode::JobFailed,
                                 "characterization: " + char_error[idx]);
            failed.push_back(f);
            continue;
        }
        results.push_back(run_job(module.kind, faults[idx],
                                  mem_faults[idx], suite, spec,
                                  corrupts[idx] != 0));
    }

    CampaignReport report = aggregate_report(results, npairs, failed);
    report.module = module_kind_name(module.kind);
    report.seed = cfg.seed;
    report.max_slots = cfg.max_slots;
    report.probability = cfg.probability;
    report.suite_size = suite.size();
    report.num_pairs = npairs;
    return report;
}

} // namespace vega::campaign::oracle
