#include "fleet/fault_matrix.h"

#include <memory>

#include "campaign/engine.h"
#include "campaign/job.h"
#include "campaign/thread_pool.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/eval_tape.h"

namespace vega::fleet {

size_t
FaultMatrix::detectable_classes() const
{
    size_t n = 0;
    for (const FaultClass &f : faults)
        if (f.detecting_tests)
            ++n;
    return n;
}

size_t
FaultMatrix::corrupting_classes() const
{
    size_t n = 0;
    for (const FaultClass &f : faults)
        if (f.corrupts)
            ++n;
    return n;
}

namespace {

/** Characterize one fault class; exceptions leave it undetectable. */
void
characterize(const HwModule &module,
             const std::vector<runtime::TestCase> &suite,
             const sta::EndpointPair &pair, lift::FaultConstant constant,
             uint64_t stream_root, FaultClass &out)
{
    VEGA_SPAN("fleet.characterize");
    out.per_test.assign(suite.size(), runtime::Detection::None);
    try {
        if (is_mem_module(module.kind)) {
            // Memory substrate: the aged decode gate lifts to a
            // wrong-address class; screening runs the suite through
            // the faulty-memory ISS instead of a netlist mount.
            CellId gate =
                mem::pick_decoder_gate(module.netlist, pair.worst);
            if (gate == kInvalidId)
                return; // pure datapath path: inert at fleet level
            mem::MemFaultClass cls =
                mem::classify_slow_gate(module.netlist, gate);
            if (cls.kind == mem::MemFaultKind::None)
                return;
            out.corrupts = mem::mem_workload_corrupts(cls);
            for (size_t t = 0; t < suite.size(); ++t) {
                mem::MarchEngine engine(cls);
                runtime::Detection d = engine.run(suite[t]);
                out.per_test[t] = d;
                if (d != runtime::Detection::None)
                    ++out.detecting_tests;
            }
            return;
        }
        lift::FailingNetlist failing =
            lift::build_failing_netlist(module.netlist,
                                        lift::fault_spec(pair, constant));
        auto tape =
            std::make_shared<const EvalTape>(failing.netlist);
        uint64_t stream = stream_root;
        out.corrupts = campaign::workload_corrupts(
            module.kind, tape, failing.has_random_input,
            campaign::splitmix64(stream));
        for (size_t t = 0; t < suite.size(); ++t) {
            // Fresh engine per test: the matrix models each dispatch
            // as an independent screen (hardware state carried across
            // tests is a second-order effect at fleet granularity).
            campaign::NetlistEngine engine(
                module.kind, tape, failing.has_random_input,
                campaign::splitmix64(stream));
            runtime::Detection d = engine.run(suite[t]);
            out.per_test[t] = d;
            if (d != runtime::Detection::None)
                ++out.detecting_tests;
        }
    } catch (...) {
        // A malformed fault class is recorded as inert rather than
        // sinking the whole fleet characterization.
        out.corrupts = false;
        out.detecting_tests = 0;
        out.per_test.assign(suite.size(), runtime::Detection::None);
    }
}

} // namespace

Expected<FaultMatrix>
build_fault_matrix(const HwModule &module,
                   const std::vector<sta::EndpointPair> &pairs,
                   const std::vector<runtime::TestCase> &suite,
                   const std::vector<lift::FaultConstant> &constants,
                   size_t threads, uint64_t seed)
{
    if (pairs.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs endpoint pairs");
    if (suite.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs a non-empty suite");
    if (constants.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs fault constants");

    VEGA_SPAN("fleet.matrix");
    FaultMatrix m;
    m.module = module.kind;
    m.num_pairs = pairs.size();
    m.num_tests = suite.size();
    m.faults.resize(pairs.size() * constants.size());
    m.test_cycles.reserve(suite.size());
    for (const runtime::TestCase &tc : suite) {
        m.test_cycles.push_back(tc.cycle_cost);
        m.suite_cycles += tc.cycle_cost;
    }

    campaign::ThreadPool pool(threads);
    for (size_t pi = 0; pi < pairs.size(); ++pi) {
        for (size_t ci = 0; ci < constants.size(); ++ci) {
            size_t idx = pi * constants.size() + ci;
            FaultClass &slot = m.faults[idx];
            slot.pair_index = pi;
            slot.constant = constants[ci];
            pool.submit([&, idx, pi, ci] {
                characterize(module, suite, pairs[pi], constants[ci],
                             campaign::job_stream(seed, uint64_t(idx)),
                             m.faults[idx]);
            });
        }
    }
    pool.wait_idle();

    static obs::Counter &classes = obs::counter("fleet.fault_classes");
    classes.add(m.faults.size());
    return m;
}

} // namespace vega::fleet
