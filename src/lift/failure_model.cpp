#include "lift/failure_model.h"

#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "netlist/builder.h"

namespace vega::lift {

const char *
fault_constant_name(FaultConstant c)
{
    switch (c) {
      case FaultConstant::Zero:        return "C=0";
      case FaultConstant::One:         return "C=1";
      case FaultConstant::RandomInput: return "C=rand";
    }
    return "?";
}

const char *
mitigation_name(Mitigation m)
{
    switch (m) {
      case Mitigation::None:        return "none";
      case Mitigation::RisingEdge:  return "rise";
      case Mitigation::FallingEdge: return "fall";
    }
    return "?";
}

namespace {

/** The fault-model nets shared by both instrumentation modes. */
struct FaultNets
{
    NetId faulty_d;    ///< replacement for Y's D pin
    NetId active;      ///< 1 when the violation corrupts this cycle
};

/**
 * Build the Eq. 2 / Eq. 3 structure into @p nl (a fresh copy of the
 * module): history flop, activation comparator, C source, and the MUX
 * producing Y's corrupted next-state.
 */
FaultNets
build_fault_logic(Netlist &nl, const FailureModelSpec &spec)
{
    Builder b(nl, "vegafm");
    // Copy by value: adding cells below reallocates the cell vector.
    const Cell x = nl.cell(spec.launch);
    const Cell y = nl.cell(spec.capture);
    VEGA_CHECK(x.type == CellType::Dff && y.type == CellType::Dff,
               "failure model endpoints must be DFFs");

    NetId y_orig_d = y.in[0];

    // C source.
    NetId c_net = kInvalidId;
    switch (spec.constant) {
      case FaultConstant::Zero:
        c_net = b.const0();
        break;
      case FaultConstant::One:
        c_net = b.const1();
        break;
      case FaultConstant::RandomInput:
        c_net = nl.add_input_bus("fm_rand", 1)[0];
        break;
    }

    // Activation condition.
    NetId x_now = x.out;
    NetId x_other; // X(t-1) for setup, X(t+1) for hold
    if (spec.launch == spec.capture) {
        // Same-flop path: Y is metastable and always samples C (§3.3.1).
        NetId one = b.const1();
        NetId active = one;
        NetId faulty = b.mux(y_orig_d, c_net, active);
        nl.cell_mut(spec.capture).in[0] = faulty;
        return {faulty, active};
    }
    if (spec.is_setup) {
        // History flop retains X(t-1); cell $12 in Figure 5.
        x_other = b.dff(x_now, x.init, x.clock_leaf);
    } else {
        // X's own D pin is X(t+1); Figure 6.
        x_other = x.in[0];
    }

    NetId active;
    switch (spec.mitigation) {
      case Mitigation::None:
        active = b.xor_(x_now, x_other);
        break;
      case Mitigation::RisingEdge:
        // Setup: rising edge means X(t-1)=0, X(t)=1. Hold: X(t)=0 and
        // X(t+1)=1. Either way: "now" side low for hold, high for setup.
        active = spec.is_setup ? b.and_(x_now, b.not_(x_other))
                               : b.and_(b.not_(x_now), x_other);
        break;
      case Mitigation::FallingEdge:
        active = spec.is_setup ? b.and_(b.not_(x_now), x_other)
                               : b.and_(x_now, b.not_(x_other));
        break;
      default:
        panic("bad mitigation");
    }

    NetId faulty = b.mux(y_orig_d, c_net, active);
    return {faulty, active};
}

} // namespace

FailureModelSpec
fault_spec(const sta::EndpointPair &pair, FaultConstant c)
{
    FailureModelSpec fm;
    fm.launch = pair.launch;
    fm.capture = pair.capture;
    fm.is_setup = pair.is_setup;
    fm.constant = c;
    return fm;
}

FailingNetlist
build_failing_netlist(const Netlist &nl, const FailureModelSpec &spec)
{
    FailingNetlist out;
    out.netlist = nl; // deep copy
    out.netlist.set_name(nl.name() + "_failing");
    FaultNets fm = build_fault_logic(out.netlist, spec);
    if (spec.launch != spec.capture)
        out.netlist.cell_mut(spec.capture).in[0] = fm.faulty_d;
    out.has_random_input = spec.constant == FaultConstant::RandomInput;
    out.netlist.validate();
    return out;
}

FaultBank
build_fault_bank(const Netlist &nl,
                 const std::vector<FailureModelSpec> &specs)
{
    VEGA_CHECK(!specs.empty(), "fault bank needs at least one spec");
    FaultBank out;
    out.netlist = nl; // deep copy
    out.netlist.set_name(nl.name() + "_bank");
    out.num_faults = specs.size();
    out.fault_random.resize(specs.size(), 0);
    Netlist &bnl = out.netlist;

    // Activation logic must read each launch flop's *original* D net:
    // once an earlier fault splices a MUX chain in front of a shared
    // capture flop, cell().in[0] points at the chain, not the module's
    // own next-state function. With one-hot enables the chain is an
    // exact pass-through, so the original net carries the same value —
    // reading it keeps every fault's activation cone identical to its
    // standalone build_failing_netlist() form.
    std::unordered_map<CellId, NetId> orig_d;
    for (const FailureModelSpec &spec : specs) {
        const Cell &x = bnl.cell(spec.launch);
        const Cell &y = bnl.cell(spec.capture);
        VEGA_CHECK(x.type == CellType::Dff && y.type == CellType::Dff,
                   "failure model endpoints must be DFFs");
        orig_d.emplace(spec.launch, x.in[0]);
        orig_d.emplace(spec.capture, y.in[0]);
    }

    Builder b(bnl, "vegafm");
    std::vector<NetId> enables = bnl.add_input_bus("fm_en", specs.size());
    NetId rand_net = kInvalidId;
    for (const FailureModelSpec &spec : specs) {
        if (spec.constant == FaultConstant::RandomInput) {
            rand_net = bnl.add_input_bus("fm_rand", 1)[0];
            out.has_random_input = true;
            break;
        }
    }

    for (size_t i = 0; i < specs.size(); ++i) {
        const FailureModelSpec &spec = specs[i];
        // Copy by value: adding cells below reallocates the cell vector.
        const Cell x = bnl.cell(spec.launch);

        NetId c_net = kInvalidId;
        switch (spec.constant) {
          case FaultConstant::Zero:
            c_net = b.const0();
            break;
          case FaultConstant::One:
            c_net = b.const1();
            break;
          case FaultConstant::RandomInput:
            c_net = rand_net;
            out.fault_random[i] = 1;
            break;
        }

        NetId gated;
        if (spec.launch == spec.capture) {
            // Same-flop path: standalone activation is constant 1, so
            // the gated form is the enable itself.
            gated = enables[i];
        } else {
            NetId x_now = x.out;
            NetId x_other = spec.is_setup
                                ? b.dff(x_now, x.init, x.clock_leaf)
                                : orig_d.at(spec.launch);
            NetId active;
            switch (spec.mitigation) {
              case Mitigation::None:
                active = b.xor_(x_now, x_other);
                break;
              case Mitigation::RisingEdge:
                active = spec.is_setup ? b.and_(x_now, b.not_(x_other))
                                       : b.and_(b.not_(x_now), x_other);
                break;
              case Mitigation::FallingEdge:
                active = spec.is_setup ? b.and_(b.not_(x_now), x_other)
                                       : b.and_(x_now, b.not_(x_other));
                break;
              default:
                panic("bad mitigation");
            }
            gated = b.and_(active, enables[i]);
        }

        // Chain onto whatever currently drives Y's D — the original
        // next-state net, or an earlier fault's (pass-through when
        // disabled) MUX.
        NetId cur_d = bnl.cell(spec.capture).in[0];
        NetId faulty = b.mux(cur_d, c_net, gated);
        bnl.cell_mut(spec.capture).in[0] = faulty;
    }

    bnl.validate();
    return out;
}

namespace {

/** The per-spec product of one shadow-replica construction. */
struct ShadowCone
{
    NetId mismatch = kInvalidId;
    std::vector<std::pair<NetId, NetId>> state_pairs;
    std::vector<std::string> shadowed_buses;
};

/**
 * Core of both shadow builders: splice spec's fault model into @p snl
 * (already a copy of @p nl, possibly carrying earlier cones), duplicate
 * Y's fanout cone under @p suffix, and build the observability-gated
 * mismatch bit. @p add_shadow_buses registers the "<bus><suffix>"
 * output buses (the single-spec instrumentation publishes them per
 * Table 2; the bank keeps only the mismatch bits as outputs).
 */
ShadowCone
build_shadow_cone(Netlist &snl, const Netlist &nl,
                  const FailureModelSpec &spec, const std::string &suffix,
                  bool add_shadow_buses)
{
    VEGA_CHECK(spec.constant != FaultConstant::RandomInput,
               "formal trace generation uses constant C only");

    ShadowCone out;
    FaultNets fm = build_fault_logic(snl, spec);

    // Cells influenced by Y, including Y itself (§3.3.2).
    std::vector<CellId> cone = nl.fanout_cone(spec.capture);
    std::unordered_set<CellId> in_cone(cone.begin(), cone.end());

    // Shadow output net per cone cell, created up front so shadow cells
    // can be wired in any order.
    std::unordered_map<NetId, NetId> shadow_net; // orig out -> shadow out
    for (CellId c : cone) {
        NetId orig = snl.cell(c).out;
        shadow_net[orig] = snl.new_net(nl.net(orig).name + suffix);
    }

    for (CellId c : cone) {
        const Cell orig = snl.cell(c); // copy: adding cells reallocates
        std::vector<NetId> ins;
        for (int i = 0; i < orig.num_inputs(); ++i) {
            NetId in = orig.in[i];
            auto it = shadow_net.find(in);
            ins.push_back(it == shadow_net.end() ? in : it->second);
        }
        if (c == spec.capture && spec.launch != spec.capture) {
            // The shadow Y samples the corrupted D (Figure 7's $10S).
            ins[0] = fm.faulty_d;
        }
        if (orig.type == CellType::Dff) {
            CellId s = snl.add_dff(orig.name + suffix, ins[0],
                                   shadow_net.at(orig.out), orig.init,
                                   orig.clock_leaf);
            (void)s;
            out.state_pairs.emplace_back(orig.out,
                                         shadow_net.at(orig.out));
        } else {
            snl.add_cell(orig.type, orig.name + suffix, ins,
                         shadow_net.at(orig.out));
        }
    }

    // In the failing-netlist mode the fault replaces Y's D directly; in
    // shadow mode Y keeps its original D, and only the replica sees the
    // corruption — revert any splice done for the same-flop case.
    if (spec.launch == spec.capture) {
        // build_fault_logic spliced Y; restore the original D and hand
        // the corrupted input to the shadow copy only.
        // (For distinct endpoints build_fault_logic does not splice.)
        // The shadow copy above read orig.in after the splice, so it is
        // already corrupted; restore the original wiring for Y itself.
        // Find Y's original D: the MUX we inserted has it as input A.
        const Cell &y = snl.cell(spec.capture);
        const Cell &mux = snl.cell(snl.net(y.in[0]).driver);
        VEGA_CHECK(mux.type == CellType::Mux2, "fault mux expected");
        snl.cell_mut(spec.capture).in[0] = mux.in[0];
    }

    // Cover target: OR over shadowed primary-output bits of
    // (orig != shadow); also publish "<bus>_s" shadow buses (Table 2).
    //
    // Observability gating (§3.3.3 microarchitectural knowledge): when
    // the module has a result-valid handshake, a result-bus mismatch
    // only matters on cycles where the handshake presents the result —
    // software never reads "r" otherwise. Mismatches on the handshake
    // and flag buses themselves stay ungated.
    Builder b(snl, "vegacov");
    NetId r_observable = kInvalidId;
    if (nl.has_bus("valid_out"))
        r_observable = nl.bus("valid_out")[0];

    std::vector<NetId> diffs;
    for (const auto &bus_name : nl.output_bus_names()) {
        const auto &nets = nl.bus(bus_name);
        bool gate_bus = bus_name == "r" && r_observable != kInvalidId;
        bool any_shadowed = false;
        std::vector<NetId> shadow_bus;
        for (NetId n : nets) {
            auto it = shadow_net.find(n);
            if (it != shadow_net.end()) {
                any_shadowed = true;
                shadow_bus.push_back(it->second);
                NetId diff = b.xor_(n, it->second);
                if (gate_bus)
                    diff = b.and_(diff, r_observable);
                diffs.push_back(diff);
            } else {
                shadow_bus.push_back(n);
            }
        }
        if (any_shadowed) {
            if (add_shadow_buses)
                snl.add_output_bus(bus_name + suffix, shadow_bus);
            out.shadowed_buses.push_back(bus_name);
        }
    }
    VEGA_CHECK(!diffs.empty(),
               "shadow cone of ", nl.cell(spec.capture).name,
               " reaches no primary output");
    out.mismatch = b.or_n(diffs);
    return out;
}

} // namespace

ShadowInstrumentation
build_shadow_instrumentation(const Netlist &nl, const FailureModelSpec &spec)
{
    ShadowInstrumentation out;
    out.netlist = nl; // deep copy
    Netlist &snl = out.netlist;
    snl.set_name(nl.name() + "_shadow");

    ShadowCone cone = build_shadow_cone(snl, nl, spec, "_s",
                                        /*add_shadow_buses=*/true);
    out.mismatch = cone.mismatch;
    out.state_pairs = std::move(cone.state_pairs);
    out.shadowed_buses = std::move(cone.shadowed_buses);
    snl.add_output_bus("mismatch", {out.mismatch});

    snl.validate();
    return out;
}

ShadowBank
build_shadow_bank(const Netlist &nl,
                  const std::vector<FailureModelSpec> &specs)
{
    VEGA_CHECK(!specs.empty(), "shadow bank needs at least one spec");
    ShadowBank out;
    out.netlist = nl; // deep copy
    Netlist &bnl = out.netlist;
    bnl.set_name(nl.name() + "_shadowbank");

    // Cones are built strictly one after another; build_shadow_cone
    // restores every original net it touches (the same-flop splice is
    // reverted after the replica samples it), so cone i+1 reads the
    // pristine module and the cones stay mutually independent.
    std::vector<NetId> mismatches;
    mismatches.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        ShadowCone cone =
            build_shadow_cone(bnl, nl, specs[i],
                              "_s" + std::to_string(i),
                              /*add_shadow_buses=*/false);
        mismatches.push_back(cone.mismatch);
        out.cones.push_back({cone.mismatch, std::move(cone.state_pairs)});
    }
    bnl.add_output_bus("mismatch", mismatches);

    bnl.validate();
    return out;
}

} // namespace vega::lift
