/**
 * @file
 * End-to-end benchmark program for Vega's user-facing jobs:
 *
 *   lift-fpu      build a suite (aging STA + error lifting) on FPU32
 *   campaign-alu  validate the ALU suite by fault injection; its traced
 *                 run also runs the suite across a simulated device fleet
 *
 *   vega_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--threads T] [--smoke] [--trace-out FILE]
 *
 * Each workload is a closed loop in one process: set-up (repeated in
 * bursts; setup_s is the median burst mean), then the timed phase repeated
 * until the time budget is spent (run_ref and cpu_ref are medians of each
 * iteration's time over a calibration loop timed around it; see
 * calibrate()). Only public entry points are called, and every span is
 * recorded here, around those calls, never inside the library. The last stdout line is one
 * JSON object {correct, attempted, failed, metrics}; a failed
 * correctness check makes the exit code non-zero.
 *
 * --trace 0 reports the end-to-end metrics from untraced iterations.
 * --trace 1 runs a warm-up iteration, then pairs of one untraced and
 * one traced iteration, and reports the per-layer metrics: span times,
 * obs counter deltas, getrusage deltas, and the median traced-minus-
 * untraced run_s as the tracing overhead, plus probes timed from outside
 * (campaign waves, the fleet). Spans are kept in memory and written to
 * --trace-out at exit.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aging/timing_library.h"
#include "campaign/campaign.h"
#include "campaign/engine.h"
#include "campaign/job.h"
#include "campaign/wave.h"
#include "common/checksum.h"
#include "fleet/fault_matrix.h"
#include "fleet/fleet_sim.h"
#include "lift/error_lifting.h"
#include "lift/failure_model.h"
#include "obs/metrics.h"
#include "runtime/aging_library.h"
#include "runtime/suite_io.h"
#include "sim/eval_tape.h"
#include "vega/aging_analysis.h"
#include "vega/workflow.h"
#include "workloads/kernels.h"

using namespace vega;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Process resources (getrusage covers every thread of the process).

struct Usage
{
    double user_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
};

double
tv_seconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

Usage
usage_now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {tv_seconds(ru.ru_utime), tv_seconds(ru.ru_stime),
            ru.ru_minflt};
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// In-memory span recorder. Disabled, a span only reads the clock;
// enabled, it stores (name, start, end, parent) plus getrusage deltas,
// and the whole list is written once at exit.

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double sys_s = 0.0;
    long minor_faults = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void set_enabled(bool on) { enabled_ = on; }

    /** Run @p fn inside span @p name; returns its duration in seconds
     *  (measured whether or not spans are recorded). */
    template <class Fn>
    double run(const char *name, Fn &&fn)
    {
        if (!enabled_) {
            auto t0 = Clock::now();
            fn();
            return seconds_since(t0);
        }
        int id = int(spans_.size());
        spans_.push_back({name, 0.0, 0.0,
                          stack_.empty() ? -1 : stack_.back(), 0.0, 0});
        stack_.push_back(id);
        Usage u0 = usage_now();
        double start = seconds_since(origin_);
        try {
            fn();
        } catch (...) {
            stack_.pop_back();
            throw;
        }
        double end = seconds_since(origin_);
        Usage u1 = usage_now();
        stack_.pop_back();
        Span &s = spans_[size_t(id)];
        s.start = start;
        s.end = end;
        s.sys_s = u1.sys_s - u0.sys_s;
        s.minor_faults = u1.minor_faults - u0.minor_faults;
        return end - start;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of durations of the spans named @p name among spans
     *  [from, to) in recording order. */
    double total(const std::string &name, size_t from, size_t to) const
    {
        double t = 0.0;
        for (size_t i = from; i < std::min(to, spans_.size()); ++i)
            if (spans_[i].name == name)
                t += spans_[i].end - spans_[i].start;
        return t;
    }

    /** Sum of durations of the direct children of span @p parent. */
    double children_total(size_t parent) const
    {
        double t = 0.0;
        for (const Span &s : spans_)
            if (s.parent == int(parent))
                t += s.end - s.start;
        return t;
    }

    bool write_json(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"spans\": [");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_s\": %.6f, \"end_s\": %.6f, "
                         "\"parent\": %d, \"sys_s\": %.6f, "
                         "\"minor_faults\": %ld}",
                         i ? "," : "", i, s.name.c_str(), s.start, s.end,
                         s.parent, s.sys_s, s.minor_faults);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// obs counter deltas.

struct CounterSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> histogram_sums;

    static CounterSnapshot take()
    {
        CounterSnapshot s;
        obs::MetricsSnapshot m = obs::snapshot_metrics();
        for (const auto &[name, v] : m.counters)
            s.counters[name] = v;
        for (const auto &h : m.histograms)
            s.histogram_sums[h.name] = h.sum;
        return s;
    }

    double counter_delta(const CounterSnapshot &before,
                         const std::string &name) const
    {
        auto a = counters.find(name);
        if (a == counters.end())
            return 0.0;
        auto b = before.counters.find(name);
        return double(a->second -
                      (b == before.counters.end() ? 0 : b->second));
    }

    double histogram_sum_delta(const CounterSnapshot &before,
                               const std::string &name) const
    {
        auto a = histogram_sums.find(name);
        if (a == histogram_sums.end())
            return 0.0;
        auto b = before.histogram_sums.find(name);
        return a->second -
               (b == before.histogram_sums.end() ? 0.0 : b->second);
    }
};

// ---------------------------------------------------------------------
// Statistics and output.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

// ---------------------------------------------------------------------
// Host calibration. The host is shared: for minutes at a time other
// tenants slow this VM by 20-40%, longer than a run, and they slow
// pointer-chasing work (SAT, STA) more than bit-parallel simulation.
// A fixed loop timed between iterations measures that slowdown. It
// spends about half its time on each kind of work: maps and hash
// tables over a few MiB (60k keys), then 64-bit gate-like logic over
// 32 KiB (11k passes); 0.14-0.22 s in all on the development host. It
// calls no Vega code, so no change to Vega moves it, and iteration
// time over calibration time is a cost that the host's state largely
// cancels out of.

double
calibrate()
{
    auto t0 = Clock::now();
    std::mt19937_64 rng(12345);
    std::map<uint64_t, uint64_t> tree;
    std::unordered_map<uint64_t, uint64_t> hash;
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 60000; ++i) {
        uint64_t k = rng();
        tree[k] = i;
        hash[k ^ 0x9e3779b97f4a7c15ull] = i;
        keys.push_back(k);
    }
    uint64_t acc = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t k : keys)
            acc += tree.find(k)->second +
                   hash.find(k ^ 0x9e3779b97f4a7c15ull)->second;
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> wires(4096);
    for (uint64_t &w : wires)
        w = rng();
    const size_t mask = wires.size() - 1;
    for (int pass = 0; pass < 11000; ++pass)
        for (size_t i = 0; i < wires.size(); ++i)
            wires[i] = (wires[(i + 1) & mask] & wires[(i + 7) & mask]) ^
                       (wires[(i + 13) & mask] | ~wires[(i + 29) & mask]);
    static volatile uint64_t sink;
    sink = acc + keys[keys.size() / 2] + wires[0];
    return seconds_since(t0);
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
format_value(double v)
{
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        return std::to_string((long long)v);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
result_json(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               format_value(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------------------
// Workload parameters.

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    size_t threads = 2;
    bool smoke = false;
    std::string trace_out;
};

/** vega_campaign's lift settings: shallow unroll, a bounded conflict
 *  budget, one escalation rung, then the fuzz fallback. */
WorkflowConfig
suite_config(size_t max_pairs)
{
    WorkflowConfig cfg;
    cfg.aging.max_trace = 4000;
    cfg.lift.max_pairs = max_pairs;
    cfg.lift.bmc.max_frames = 4;
    cfg.lift.bmc.conflict_budget = 400000;
    cfg.lift.formal_attempts = 2;
    cfg.lift.formal_budget_growth = 4.0;
    cfg.lift.degrade_to_fuzz = true;
    return cfg;
}

constexpr size_t kFpuPairs = 16;
constexpr size_t kFpuSmokePairs = 4;
constexpr size_t kAluPairs = 8;
constexpr size_t kCampaignJobs = 2048;
constexpr size_t kCampaignSmokeJobs = 256;
constexpr uint64_t kFleetDevices = 500000;
constexpr uint64_t kFleetSmokeDevices = 4000;
constexpr uint32_t kFleetEpochs = 8;
/** Injection waves timed one by one in the traced campaign probe. */
constexpr size_t kProbeWaves = 32;

const std::vector<lift::FaultConstant> kConstants = {
    lift::FaultConstant::Zero, lift::FaultConstant::One};

// ---------------------------------------------------------------------
// Set-up: module, aging timing library, SP workload trace and, for the
// campaign-alu workload, the lifted suite the timed phase screens with.

struct Setup
{
    HwModule module;
    aging::AgingTimingLibrary lib;
    std::vector<cpu::FuTraceEntry> trace;
    /** campaign-alu only: the suite built in set-up. */
    std::vector<sta::EndpointPair> pairs;
    lift::LiftResult lift;
    std::vector<runtime::TestCase> suite;
};

/** Lifting outcome, reduced to what the benchmark checks. */
struct LiftSummary
{
    size_t attempted = 0;
    size_t failed = 0; ///< Timeout, FC, or exhausted without Success
    size_t lifted = 0; ///< Success
    uint64_t suite_cycles = 0;
    uint32_t fingerprint = 0;
};

LiftSummary
summarize_lift(const lift::LiftResult &lr,
               const std::vector<runtime::TestCase> &suite)
{
    LiftSummary s;
    Crc32c crc;
    for (const lift::PairResult &pr : lr.pairs) {
        ++s.attempted;
        bool exhausted = false;
        for (const lift::ConfigOutcome &c : pr.configs)
            exhausted = exhausted || c.exhausted;
        // A Success pair may carry an exhausted configuration; the pair
        // itself still lifted.
        if (pr.status == lift::PairStatus::Timeout ||
            pr.status == lift::PairStatus::ConversionFailed ||
            (exhausted && pr.status != lift::PairStatus::Success))
            ++s.failed;
        if (pr.status == lift::PairStatus::Success)
            ++s.lifted;
        std::string line = std::to_string(pr.pair.launch) + ":" +
                           std::to_string(pr.pair.capture) + ":" +
                           lift::pair_status_name(pr.status) + "\n";
        crc.update(line);
    }
    crc.update(runtime::serialize_suite(suite));
    s.suite_cycles = lr.suite_cycles();
    s.fingerprint = crc.value();
    return s;
}

Setup
run_setup(ModuleKind kind, bool build_suite, Tracer &tr)
{
    Setup s;
    tr.run("rtl.make_module", [&] { s.module = make_module(kind); });
    tr.run("aging.timing_library", [&] {
        s.lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    });
    tr.run("cpu.record_trace", [&] {
        s.trace = record_workload_trace({workloads::make_minver().program});
    });
    if (!build_suite)
        return s;
    WorkflowConfig cfg = suite_config(kAluPairs);
    AgingAnalysisResult aging;
    tr.run("vega.aging_analysis", [&] {
        aging = run_aging_analysis(s.module, s.lib, s.trace, cfg.aging);
    });
    tr.run("lift.error_lifting", [&] {
        s.lift = lift::run_error_lifting(s.module, aging.liftable_pairs(),
                                         cfg.lift);
    });
    s.suite = s.lift.suite();
    for (const lift::PairResult &pr : s.lift.pairs)
        s.pairs.push_back(pr.pair);
    return s;
}

// ---------------------------------------------------------------------
// One iteration of a workload's timed phase.

struct IterationResult
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double sys_s = 0.0;
    long minor_faults = 0;
    uint32_t fingerprint = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    // Simulated results; identical for every iteration of one seed.
    double lifted_pairs = 0.0;
    double suite_cycles = 0.0;
    double detection_rate = 0.0;
    double sdc_escape_rate = 0.0;
    double mean_latency_slots = 0.0;
    // Kept for the traced probes and checks.
    std::vector<runtime::TestCase> suite;
    std::optional<campaign::CampaignReport> campaign;
};

/** Time one iteration's "run" span and its process resources. */
template <class Fn>
void
timed_phase(IterationResult &r, Tracer &tr, Fn &&fn)
{
    Usage u0 = usage_now();
    r.wall_s = tr.run("run", fn);
    Usage u1 = usage_now();
    r.cpu_s = (u1.user_s + u1.sys_s) - (u0.user_s + u0.sys_s);
    r.sys_s = u1.sys_s - u0.sys_s;
    r.minor_faults = u1.minor_faults - u0.minor_faults;
}

IterationResult
iterate_lift_fpu(const Setup &s, const Options &opt, Tracer &tr)
{
    IterationResult r;
    HwModule module = s.module; // aging analysis calibrates in place
    WorkflowConfig cfg =
        suite_config(opt.smoke ? kFpuSmokePairs : kFpuPairs);
    lift::LiftResult lr;
    timed_phase(r, tr, [&] {
        AgingAnalysisResult aging;
        tr.run("vega.aging_analysis", [&] {
            aging = run_aging_analysis(module, s.lib, s.trace, cfg.aging);
        });
        std::vector<sta::EndpointPair> worst = aging.liftable_pairs();
        if (worst.size() > cfg.lift.max_pairs)
            worst.resize(cfg.lift.max_pairs);
        tr.run("lift.error_lifting", [&] {
            lr = lift::run_error_lifting(module, worst, cfg.lift);
        });
    });
    r.suite = lr.suite();
    LiftSummary ls = summarize_lift(lr, r.suite);
    r.fingerprint = ls.fingerprint;
    r.attempted = ls.attempted;
    r.failed = ls.failed;
    r.lifted_pairs = double(ls.lifted);
    r.suite_cycles = double(ls.suite_cycles);
    return r;
}

IterationResult
iterate_campaign_alu(const Setup &s, const Options &opt, Tracer &tr)
{
    IterationResult r;
    campaign::CampaignConfig cfg;
    cfg.seed = opt.seed;
    cfg.num_jobs = opt.smoke ? kCampaignSmokeJobs : kCampaignJobs;
    cfg.threads = opt.threads;
    cfg.constants = kConstants;
    std::optional<Expected<campaign::CampaignReport>> run;
    timed_phase(r, tr, [&] {
        tr.run("campaign.run_campaign", [&] {
            run.emplace(campaign::try_run_campaign(s.module, s.pairs,
                                                   s.suite, cfg));
        });
    });
    if (!run->ok()) {
        std::fprintf(stderr, "campaign failed: %s\n",
                     run->error().to_string().c_str());
        r.attempted = cfg.num_jobs;
        r.failed = cfg.num_jobs;
        return r;
    }
    campaign::CampaignReport &rep = **run;
    r.fingerprint = crc32c(rep.to_json(false, true));
    r.attempted = cfg.num_jobs;
    r.failed = rep.failed;
    r.detection_rate = rep.detection_rate();
    r.sdc_escape_rate = rep.escape_rate();
    r.mean_latency_slots = rep.mean_latency_slots();
    r.campaign = std::move(rep);
    return r;
}

// ---------------------------------------------------------------------
// Traced-only probes: the campaign's wave layers, timed from outside on
// the same fault classes, and the fleet built from the same suite.

lift::FailureModelSpec
class_spec(const sta::EndpointPair &pair, lift::FaultConstant c)
{
    lift::FailureModelSpec fm;
    fm.launch = pair.launch;
    fm.capture = pair.capture;
    fm.is_setup = pair.is_setup;
    fm.constant = c;
    return fm;
}

struct WaveProbe
{
    double build_bank_s = 0.0;
    double tape_compile_s = 0.0;
    double characterize_s = 0.0;
    double lane_occupancy = 0.0;
    double wave_p50_s = 0.0;
    double wave_p90_s = 0.0;
    bool verdicts_match = true;
};

WaveProbe
probe_waves(const Setup &s, const campaign::CampaignReport &rep,
            uint64_t seed, Tracer &tr)
{
    WaveProbe p;
    size_t nconst = kConstants.size();
    size_t nclasses = s.pairs.size() * nconst;
    std::vector<lift::FailureModelSpec> specs;
    for (size_t idx = 0; idx < nclasses; ++idx)
        specs.push_back(
            class_spec(s.pairs[idx / nconst], kConstants[idx % nconst]));

    lift::FaultBank bank;
    p.build_bank_s = tr.run("lift.build_fault_bank", [&] {
        bank = lift::build_fault_bank(s.module.netlist, specs);
    });
    campaign::WaveContext ctx;
    p.tape_compile_s = tr.run("sim.tape_compile", [&] {
        ctx.tape = std::make_shared<const EvalTape>(bank.netlist);
    });
    ctx.kind = s.module.kind;
    ctx.num_faults = bank.num_faults;
    ctx.fault_random = &bank.fault_random;
    ctx.suite = &s.suite;

    // Characterization in kWaveLanes-sized waves, as the campaign does.
    std::vector<char> corrupts(nclasses, 0);
    size_t waves = 0;
    p.characterize_s = tr.run("campaign.characterize_wave", [&] {
        for (size_t base = 0; base < nclasses;
             base += campaign::kWaveLanes, ++waves) {
            std::vector<std::pair<size_t, uint64_t>> req;
            for (size_t idx = base;
                 idx < std::min(nclasses, base + campaign::kWaveLanes);
                 ++idx)
                req.push_back({idx, campaign::job_stream(~seed, idx)});
            std::vector<char> v = campaign::characterize_wave(ctx, req);
            std::copy(v.begin(), v.end(),
                      corrupts.begin() + long(base));
        }
    });
    p.lane_occupancy =
        waves ? double(nclasses) / double(waves * campaign::kWaveLanes)
              : 0.0;

    // The campaign's own verdicts must agree with the probe's.
    for (const campaign::JobResult &j : rep.jobs) {
        size_t idx = j.pair_index * nconst +
                     (j.constant == lift::FaultConstant::One ? 1 : 0);
        if (idx >= nclasses || j.corrupts_workload != (corrupts[idx] != 0))
            p.verdicts_match = false;
    }

    // Injection waves: the campaign's first jobs (its pair, constant
    // and policy draws), 64 per wave, with probe-local scheduler seeds.
    std::vector<double> wave_s;
    uint64_t stream = campaign::job_stream(seed, ~uint64_t(0));
    for (size_t w = 0; w < kProbeWaves; ++w) {
        size_t base = w * campaign::kWaveLanes;
        if (base >= rep.jobs.size())
            break;
        std::vector<campaign::WaveJob> jobs;
        for (size_t i = base;
             i < std::min(rep.jobs.size(), base + campaign::kWaveLanes);
             ++i) {
            const campaign::JobResult &j = rep.jobs[i];
            size_t ci = j.constant == lift::FaultConstant::One ? 1 : 0;
            campaign::WaveJob wj;
            wj.spec.id = j.id;
            wj.spec.pair_index = j.pair_index;
            wj.spec.constant = j.constant;
            wj.spec.constant_index = ci;
            wj.spec.policy = j.policy;
            wj.spec.probability = rep.probability;
            wj.spec.seed = campaign::splitmix64(stream);
            wj.spec.max_slots = rep.max_slots;
            wj.bank_index = j.pair_index * nconst + ci;
            wj.corrupts = corrupts[wj.bank_index] != 0;
            jobs.push_back(wj);
        }
        wave_s.push_back(tr.run("campaign.run_wave", [&] {
            campaign::run_wave(ctx, jobs);
        }));
    }
    p.wave_p50_s = percentile(wave_s, 0.5);
    p.wave_p90_s = percentile(wave_s, 0.9);
    return p;
}

/** The ALU suite across a device fleet: build_fault_matrix on the same
 *  16 classes, then run_fleet. */
struct FleetProbe
{
    double matrix_s = 0.0;
    double fleet_s = 0.0;
    uint64_t device_epochs = 0;
    double detection_rate = 0.0;
    double test_overhead = 0.0;
    double sim_evals = 0.0;   ///< scalar netlist evaluations of both calls
    uint32_t fingerprint = 0; ///< fleet report without timing
    uint64_t attempted = 2;   ///< the matrix and the fleet run
    uint64_t failed = 0;      ///< calls that returned an error
};

FleetProbe
probe_fleet(const Setup &s, const Options &opt, Tracer &tr)
{
    FleetProbe p;
    fleet::FleetConfig fcfg;
    fcfg.seed = opt.seed;
    fcfg.num_devices = opt.smoke ? kFleetSmokeDevices : kFleetDevices;
    fcfg.epochs = opt.smoke ? 4 : kFleetEpochs;
    fcfg.threads = opt.threads;
    std::optional<Expected<fleet::FaultMatrix>> matrix;
    std::optional<Expected<fleet::FleetReport>> report;
    CounterSnapshot before = CounterSnapshot::take();
    p.matrix_s = tr.run("fleet.build_fault_matrix", [&] {
        matrix.emplace(fleet::build_fault_matrix(s.module, s.pairs, s.suite,
                                                 kConstants, opt.threads,
                                                 opt.seed));
    });
    if (matrix->ok())
        p.fleet_s = tr.run("fleet.run_fleet", [&] {
            report.emplace(fleet::run_fleet(fcfg, **matrix));
        });
    p.sim_evals = CounterSnapshot::take().counter_delta(before, "sim.evals");
    if (!matrix->ok() || !report->ok()) {
        const VegaError &e =
            !matrix->ok() ? matrix->error() : (*report).error();
        std::fprintf(stderr, "fleet failed: %s\n", e.to_string().c_str());
        p.failed = !matrix->ok() ? 2 : 1;
        return p;
    }
    const fleet::FleetReport &rep = **report;
    p.device_epochs = rep.device_epochs;
    p.detection_rate = rep.detection_rate();
    p.test_overhead = rep.mean_overhead();
    p.fingerprint = crc32c(rep.to_json(false));
    return p;
}

/** Scalar per-class workload probe (what the fleet matrix runs). */
double
probe_workload_corrupts(const Setup &s, uint64_t seed, Tracer &tr)
{
    size_t nconst = kConstants.size();
    double total = 0.0;
    for (size_t idx = 0; idx < s.pairs.size() * nconst; ++idx) {
        lift::FailingNetlist f = lift::build_failing_netlist(
            s.module.netlist,
            class_spec(s.pairs[idx / nconst], kConstants[idx % nconst]));
        total += tr.run("campaign.workload_corrupts", [&] {
            campaign::workload_corrupts(s.module.kind, f.netlist,
                                        f.has_random_input,
                                        campaign::job_stream(seed, idx));
        });
    }
    return total;
}

// ---------------------------------------------------------------------
// Correctness checks shared by every workload.

/** The deployed suite must stay silent on healthy hardware. */
bool
suite_silent_on_golden(const std::vector<runtime::TestCase> &suite)
{
    runtime::GoldenEngine golden;
    for (const runtime::TestCase &tc : suite)
        if (golden.run(tc) != runtime::Detection::None) {
            std::fprintf(stderr, "golden engine flags %s\n",
                         tc.name.c_str());
            return false;
        }
    return true;
}

bool
parse_args(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (!(v = value()))
            return false;
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            continue;
        }
        if (a == "--trace-out") {
            opt.trace_out = v;
            continue;
        }
        if (a == "--seed")
            opt.seed = std::strtoull(v, &end, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v, &end);
        else if (a == "--trace")
            opt.trace = std::strtol(v, &end, 10) != 0;
        else if (a == "--threads")
            opt.threads = std::strtoull(v, &end, 10);
        else
            return false;
        if (!end || *end != '\0')
            return false;
    }
    return (opt.workload == "lift-fpu" || opt.workload == "campaign-alu") &&
           opt.seconds > 0.0 && opt.threads > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse_args(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload lift-fpu|campaign-alu "
                     "--seed N --seconds S --trace 0|1 "
                     "[--threads T] [--smoke] [--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    const bool is_lift = opt.workload == "lift-fpu";
    const ModuleKind kind = is_lift ? ModuleKind::Fpu32 : ModuleKind::Alu32;
    auto iterate = [&](const Setup &s, Tracer &tr) {
        return is_lift ? iterate_lift_fpu(s, opt, tr)
                       : iterate_campaign_alu(s, opt, tr);
    };

    bool correct = true;
    auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "check failed: %s\n", why.c_str());
        correct = false;
    };
    std::vector<Metric> metrics;
    uint64_t attempted = 0, failed = 0;

    // Set-up runs in bursts: one before the timed phase and, untraced,
    // one before every iteration. setup_s is the median over bursts of
    // the mean repetition in each, so it samples the whole run, and a
    // host that flips between fast and slow states within a second
    // moves it smoothly instead of flipping it. A burst lasts about
    // 0.2 s on lift-fpu and 0.45 s on campaign-alu. Every repetition
    // must build the same suite.
    Tracer tr(opt.trace);
    const int burst = opt.trace || opt.smoke ? 1 : (is_lift ? 20 : 3);
    std::vector<double> setup_s;
    std::optional<Setup> setup;
    std::optional<uint32_t> setup_fp;
    auto setup_burst = [&] {
        double total = 0.0;
        for (int rep = 0; rep < burst; ++rep) {
            std::optional<Setup> s;
            total += tr.run("setup", [&] {
                s.emplace(run_setup(kind, !is_lift, tr));
            });
            uint32_t fp =
                is_lift ? 0 : summarize_lift(s->lift, s->suite).fingerprint;
            if (setup_fp && fp != *setup_fp)
                fail("set-up repetitions built different suites");
            setup_fp = fp;
            setup = std::move(s);
        }
        setup_s.push_back(total / burst);
        std::fprintf(stderr, "setup burst %zu: %.4f s mean of %d\n",
                     setup_s.size(), setup_s.back(), burst);
    };
    setup_burst();
    if (!is_lift) {
        LiftSummary ls = summarize_lift(setup->lift, setup->suite);
        if (setup->suite.empty())
            fail("set-up lifted no tests");
        if (!suite_silent_on_golden(setup->suite))
            fail("ALU suite detects a fault on the golden engine");
        std::printf("setup_fingerprint %s lifted=%zu/%zu tests=%zu\n",
                    crc32c_hex(ls.fingerprint).c_str(), ls.lifted,
                    ls.attempted, setup->suite.size());
    }

    // Timed phase. Untraced: repeat until the budget is spent (at least
    // once); another iteration starts only if half of it fits. Traced:
    // one warm-up iteration, then pairs of one untraced and one traced
    // iteration, adjacent in time so that host drift mostly cancels in
    // their comparison: at least two pairs, more while a pair fits.
    std::vector<IterationResult> iters;
    struct TracedPair
    {
        size_t untraced = 0; ///< index into iters
        size_t traced = 0;   ///< index into iters
        size_t span_from = 0, span_to = 0; ///< the traced iteration's spans
    };
    std::vector<TracedPair> pairs;
    const size_t setup_spans = tr.spans().size();
    CounterSnapshot before, after;
    Usage u_before, u_after;
    // Untraced, the calibration loop runs before the first iteration and
    // after every one; iteration i is set against calibrations i and i+1.
    std::vector<double> calib;
    auto t_phase = Clock::now();
    if (!opt.trace) {
        calib.push_back(calibrate());
        while (true) {
            iters.push_back(iterate(*setup, tr));
            calib.push_back(calibrate());
            std::fprintf(stderr,
                         "iteration %zu: %.3f s wall, %.3f s cpu, "
                         "%.3f s sys, %ld minor faults, calibration "
                         "%.4f s\n",
                         iters.size(), iters.back().wall_s,
                         iters.back().cpu_s, iters.back().sys_s,
                         iters.back().minor_faults, calib.back());
            std::vector<double> walls;
            for (const IterationResult &r : iters)
                walls.push_back(r.wall_s);
            if (seconds_since(t_phase) + 0.5 * median(walls) > opt.seconds)
                break;
            setup_burst();
        }
    } else {
        tr.set_enabled(false);
        iters.push_back(iterate(*setup, tr));
        while (true) {
            TracedPair p;
            tr.set_enabled(false);
            p.untraced = iters.size();
            iters.push_back(iterate(*setup, tr));
            tr.set_enabled(true);
            p.traced = iters.size();
            p.span_from = tr.spans().size();
            before = CounterSnapshot::take();
            u_before = usage_now();
            iters.push_back(iterate(*setup, tr));
            u_after = usage_now();
            after = CounterSnapshot::take();
            p.span_to = tr.spans().size();
            pairs.push_back(p);
            double pair_s = iters[p.untraced].wall_s + iters[p.traced].wall_s;
            if (pairs.size() >= 2 &&
                seconds_since(t_phase) + pair_s > opt.seconds)
                break;
        }
    }

    // Every iteration of one seed must reproduce the same outputs.
    const IterationResult &first = iters.front();
    for (const IterationResult &r : iters) {
        attempted += r.attempted;
        failed += r.failed;
        if (r.fingerprint != first.fingerprint)
            fail("iterations of one seed produced different outputs");
    }
    if (first.fingerprint == 0)
        fail("workload produced no output");
    std::printf("fingerprint %s\n", crc32c_hex(first.fingerprint).c_str());
    if (is_lift) {
        if (first.lifted_pairs == 0)
            fail("no FPU pair lifted");
        if (!suite_silent_on_golden(first.suite))
            fail("FPU suite detects a fault on the golden engine");
    }
    if (!is_lift && first.campaign) {
        if (first.campaign->jobs.size() + first.campaign->failed !=
            first.attempted)
            fail("campaign settled a different number of jobs");
        if (first.detection_rate <= 0.0)
            fail("campaign detected nothing");
    }

    double lifted_pairs = is_lift ? first.lifted_pairs
                                  : double(summarize_lift(setup->lift,
                                                          setup->suite)
                                               .lifted);
    double suite_cycles =
        is_lift ? first.suite_cycles : double(setup->lift.suite_cycles());

    if (!opt.trace) {
        std::vector<double> walls, cpus, run_ref, cpu_ref;
        for (size_t i = 0; i < iters.size(); ++i) {
            double cal = 0.5 * (calib[i] + calib[i + 1]);
            walls.push_back(iters[i].wall_s);
            cpus.push_back(iters[i].cpu_s);
            run_ref.push_back(iters[i].wall_s / cal);
            cpu_ref.push_back(iters[i].cpu_s / cal);
        }
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"run_ref", median(run_ref), "ratio"},
            {"cpu_ref", median(cpu_ref), "ratio"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"lifted_pairs", lifted_pairs, "count"},
            {"suite_cycles", suite_cycles, "cycles"},
        };
        std::printf("iterations %zu: median run_s %.4f s, cpu_s %.4f s, "
                    "calibration %.4f s; fastest run_s %.4f s; "
                    "setup bursts %zu of %d\n",
                    iters.size(), median(walls), median(cpus),
                    median(calib),
                    *std::min_element(walls.begin(), walls.end()),
                    setup_s.size(), burst);
    } else {
        const IterationResult &traced = iters.back();
        // Probes run after the timed phase and are not part of it.
        WaveProbe wp;
        FleetProbe fp;
        double corrupts_s = 0.0;
        if (!is_lift && traced.campaign) {
            wp = probe_waves(*setup, *traced.campaign, opt.seed, tr);
            if (!wp.verdicts_match)
                fail("wave characterization disagrees with the campaign");
            fp = probe_fleet(*setup, opt, tr);
            attempted += fp.attempted;
            failed += fp.failed;
            if (fp.device_epochs == 0 || fp.detection_rate <= 0.0)
                fail("fleet simulated nothing or detected nothing");
            std::printf("fleet_fingerprint %s\n",
                        crc32c_hex(fp.fingerprint).c_str());
            corrupts_s = probe_workload_corrupts(*setup, opt.seed, tr);
        }

        // Layer coverage: the per-layer times of each traced iteration
        // over that iteration's run_s. On campaign-alu the layers are the
        // campaign's own stage times (characterize + simulate +
        // aggregate; the journal is off, and its record time would
        // overlap simulate), so the gate fails when the reported split
        // stops accounting for the run. On lift-fpu they are the spans
        // around the public calls of the timed phase, so it fails when
        // unspanned work enters that phase. The traced and untraced
        // iterations are compared only through the overhead: on a busy
        // host two adjacent iterations can differ by a quarter, more
        // than this gate's tolerance.
        std::vector<double> coverages, overheads, untraced_s, traced_s;
        for (const TracedPair &p : pairs) {
            const IterationResult &u = iters[p.untraced];
            const IterationResult &t = iters[p.traced];
            double layers = tr.children_total(p.span_from);
            if (t.campaign) {
                const campaign::CampaignTiming &c = t.campaign->timing;
                layers = c.characterize_seconds + c.simulate_seconds +
                         c.aggregate_seconds;
            }
            coverages.push_back(t.wall_s > 0 ? layers / t.wall_s : 0.0);
            overheads.push_back(t.wall_s - u.wall_s);
            untraced_s.push_back(u.wall_s);
            traced_s.push_back(t.wall_s);
            std::fprintf(stderr,
                         "pair %zu: untraced %.3f s (%ld faults), "
                         "traced %.3f s (%ld faults), layers %.3f s\n",
                         coverages.size(), u.wall_s, u.minor_faults,
                         t.wall_s, t.minor_faults, layers);
        }
        for (double c : coverages)
            if (c < 0.9 || c > 1.1)
                fail("timed-phase layers cover " + std::to_string(c) +
                     " of run_s");
        double coverage = median(coverages);
        // Span times: the set-up's calls plus the last traced iteration's.
        auto layer = [&](const char *name) {
            return tr.total(name, 0, setup_spans) +
                   tr.total(name, pairs.back().span_from,
                            pairs.back().span_to);
        };

        auto delta = [&](const char *name) {
            return after.counter_delta(before, name);
        };
        double batch_cycles = delta("sim.batch_cycles");
        const campaign::CampaignTiming *ct =
            traced.campaign ? &traced.campaign->timing : nullptr;
        metrics = {
            {"rtl.make_module_s", layer("rtl.make_module"), "s"},
            {"aging.timing_library_s", layer("aging.timing_library"),
             "s"},
            {"cpu.record_trace_s", layer("cpu.record_trace"), "s"},
            {"vega.aging_analysis_s", layer("vega.aging_analysis"), "s"},
            {"lift.error_lifting_s", layer("lift.error_lifting"), "s"},
            {"sta.paths_enumerated", delta("sta.paths_enumerated"),
             "count"},
            {"sim.cycles", delta("sim.cycles"), "count"},
            {"sim.evals", delta("sim.evals") + fp.sim_evals, "count"},
            {"sim.tape_builds", delta("sim.tape_builds"), "count"},
            {"sat.solve_s",
             after.histogram_sum_delta(before, "sat.solve_seconds"), "s"},
            {"sat.conflicts", delta("sat.conflicts"), "count"},
            {"sat.propagations", delta("sat.propagations"), "count"},
            {"sat.solves", delta("sat.solves"), "count"},
            {"formal.frames_unrolled", delta("bmc.frames_unrolled"),
             "count"},
            {"formal.escalations", delta("bmc.escalations"), "count"},
            {"formal.timeouts", delta("bmc.timeouts"), "count"},
            {"campaign.run_s", layer("campaign.run_campaign"), "s"},
            {"campaign.characterize_s",
             ct ? ct->characterize_seconds : 0.0, "s"},
            {"campaign.simulate_s", ct ? ct->simulate_seconds : 0.0, "s"},
            {"campaign.aggregate_s", ct ? ct->aggregate_seconds : 0.0,
             "s"},
            {"campaign.steals", ct ? double(ct->steals) : 0.0, "count"},
            {"campaign.peak_queue_depth",
             ct ? double(ct->peak_queue_depth) : 0.0, "count"},
            {"lift.build_fault_bank_s", wp.build_bank_s, "s"},
            {"sim.tape_compile_s", wp.tape_compile_s, "s"},
            {"campaign.wave_characterize_s", wp.characterize_s, "s"},
            {"campaign.char_lane_occupancy", wp.lane_occupancy, "ratio"},
            {"campaign.wave_run_s.p50", wp.wave_p50_s, "s"},
            {"campaign.wave_run_s.p90", wp.wave_p90_s, "s"},
            {"sim.batch_cycles", batch_cycles, "count"},
            {"sim.batch_evals", delta("sim.batch_evals"), "count"},
            {"sim.lane_cycles", delta("sim.lane_cycles"), "count"},
            {"sim.evals_per_batch_cycle",
             batch_cycles > 0 ? delta("sim.batch_evals") / batch_cycles
                              : 0.0,
             "ratio"},
            {"fleet.fault_matrix_s", fp.matrix_s, "s"},
            {"campaign.workload_corrupts_s", corrupts_s, "s"},
            {"fleet.run_s", fp.fleet_s, "s"},
            {"fleet.device_epochs_per_s",
             fp.fleet_s > 0 ? double(fp.device_epochs) / fp.fleet_s : 0.0,
             "1/s"},
            {"proc.minor_faults",
             double(u_after.minor_faults - u_before.minor_faults), "count"},
            {"proc.sys_s", u_after.sys_s - u_before.sys_s, "s"},
            {"failed_ratio",
             traced.attempted ? double(traced.failed) /
                                    double(traced.attempted)
                              : 0.0,
             "ratio"},
            {"detection_rate", traced.detection_rate, "ratio"},
            {"sdc_escape_rate", traced.sdc_escape_rate, "ratio"},
            {"mean_latency_slots", traced.mean_latency_slots, "slots"},
            {"test_overhead", fp.test_overhead, "ratio"},
            {"bench.untraced_run_s", median(untraced_s), "s"},
            {"bench.traced_run_s", median(traced_s), "s"},
            {"bench.trace_overhead_s", median(overheads), "s"},
            {"bench.layer_coverage", coverage, "ratio"},
        };
        if (!opt.trace_out.empty() && !tr.write_json(opt.trace_out))
            fail("cannot write " + opt.trace_out);
    }

    std::puts(result_json(correct, attempted, failed, metrics).c_str());
    return correct ? 0 : 1;
}
