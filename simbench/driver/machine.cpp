#include "machine.hpp"

#include <cstdio>
#include <stdexcept>

namespace simbench {

namespace {

const WorkloadDef kWorkloads[] = {
    {"oltp-4n", core::WorkloadKind::Oltp, 4, 500'000},
    {"oltp-1n", core::WorkloadKind::Oltp, 1, 500'000},
    {"dss-4n", core::WorkloadKind::Dss, 4, 500'000},
};

std::string
exact(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
rate(std::uint64_t n, std::uint64_t d)
{
    return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
}

} // namespace

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
workloadNames()
{
    std::string out;
    for (const WorkloadDef &w : kWorkloads) {
        if (!out.empty())
            out += '|';
        out += w.name;
    }
    return out;
}

core::SimConfig
makeConfig(const WorkloadDef &w, std::uint64_t seed, std::uint64_t total,
           std::uint64_t warmup)
{
    core::SimConfig cfg = core::makeScaledConfig(w.kind, w.nodes);
    cfg.oltp.seed = seed;
    cfg.dss.seed = seed;
    cfg.total_instructions = total;
    cfg.warmup_instructions = warmup;
    cfg.validate();
    return cfg;
}

std::uint32_t
numProcs(const core::SimConfig &cfg)
{
    return cfg.workload == core::WorkloadKind::Oltp ? cfg.oltp.num_procs
                                                    : cfg.dss.num_procs;
}

std::unique_ptr<trace::TraceSource>
Machine::makeProcess(ProcId p) const
{
    return oltp ? oltp->makeProcess(p) : dss->makeProcess(p);
}

Machine
buildMachine(const core::SimConfig &cfg, const SourceWrap &wrap,
             bool with_system)
{
    Machine m;
    if (with_system)
        m.system = std::make_unique<sim::System>(cfg.system);
    if (cfg.workload == core::WorkloadKind::Oltp)
        m.oltp = std::make_unique<workload::OltpWorkload>(cfg.oltp);
    else
        m.dss = std::make_unique<workload::DssWorkload>(cfg.dss);
    if (!with_system)
        return m;

    const std::uint32_t nodes = cfg.system.num_nodes;
    for (ProcId p = 0; p < numProcs(cfg); ++p) {
        std::unique_ptr<trace::TraceSource> src = m.makeProcess(p);
        if (wrap)
            src = wrap(std::move(src));
        m.system->addProcess(std::move(src), p % nodes);
    }
    return m;
}

Stats
collectStats(const sim::System &sys, const sim::RunResult &r)
{
    Stats s;
    auto add = [&s](const char *name, auto v) { s.emplace_back(name, exact(v)); };

    add("total_cycles", static_cast<std::uint64_t>(sys.now()));
    add("total_retired", sys.totalRetired());
    add("cycles", static_cast<std::uint64_t>(r.cycles));
    add("instructions", r.instructions);
    add("ipc", r.ipc);
    for (std::size_t i = 0; i < kNumStallCats; ++i) {
        const auto cat = static_cast<StallCat>(i);
        s.emplace_back(std::string("breakdown.") + stallCatName(cat),
                       exact(r.breakdown[cat]));
    }

    sim::NodeStats n{};
    std::uint64_t itlb_acc = 0, itlb_miss = 0, dtlb_acc = 0, dtlb_miss = 0;
    std::uint64_t br_lookups = 0, br_miss = 0;
    cpu::CoreStats c{};
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const sim::NodeStats &ns = sys.node(i).stats();
        n.l1i_fetches += ns.l1i_fetches;
        n.l1i_misses += ns.l1i_misses;
        n.l1d_accesses += ns.l1d_accesses;
        n.l1d_misses += ns.l1d_misses;
        n.l2_accesses += ns.l2_accesses;
        n.l2_misses += ns.l2_misses;
        itlb_acc += sys.node(i).itlbStats().accesses;
        itlb_miss += sys.node(i).itlbStats().misses;
        dtlb_acc += sys.node(i).dtlbStats().accesses;
        dtlb_miss += sys.node(i).dtlbStats().misses;
        br_lookups += sys.core(i).branchStats().lookups();
        br_miss += sys.core(i).branchStats().mispredicts();
        const cpu::CoreStats &cs = sys.core(i).stats();
        c.loads += cs.loads;
        c.stores += cs.stores;
        c.spec_load_violations += cs.spec_load_violations;
        c.lock_yields += cs.lock_yields;
        c.lock_spin_retries += cs.lock_spin_retries;
        c.context_switches += cs.context_switches;
    }
    add("node.l1i_fetches", n.l1i_fetches);
    add("node.l1i_misses", n.l1i_misses);
    add("node.l1d_accesses", n.l1d_accesses);
    add("node.l1d_misses", n.l1d_misses);
    add("node.l2_accesses", n.l2_accesses);
    add("node.l2_misses", n.l2_misses);
    add("miss_rates.l1i_mpki",
        1000.0 * rate(n.l1i_misses, r.instructions));
    add("miss_rates.l1d", rate(n.l1d_misses, n.l1d_accesses));
    add("miss_rates.l2", rate(n.l2_misses, n.l2_accesses));
    add("miss_rates.branch_mispredict", rate(br_miss, br_lookups));
    add("miss_rates.itlb", rate(itlb_miss, itlb_acc));
    add("miss_rates.dtlb", rate(dtlb_miss, dtlb_acc));
    add("core.loads", c.loads);
    add("core.stores", c.stores);
    add("core.spec_load_violations", c.spec_load_violations);
    add("core.context_switches", c.context_switches);
    add("core.lock_spin_retries", c.lock_spin_retries);
    add("core.lock_yields", c.lock_yields);

    const coher::FabricStats &f = sys.fabric().stats();
    add("fabric.reads_local", f.reads_local);
    add("fabric.reads_remote", f.reads_remote);
    add("fabric.reads_dirty", f.reads_dirty);
    add("fabric.writes_local", f.writes_local);
    add("fabric.writes_remote", f.writes_remote);
    add("fabric.writes_dirty", f.writes_dirty);
    add("fabric.upgrades", f.upgrades);
    add("fabric.invalidations", f.invalidations_sent);
    add("fabric.writebacks", f.writebacks);
    add("fabric.transactions", f.totalMisses());
    add("fabric.dirty_misses", f.dirtyMisses());
    add("fabric.dir_entries",
        static_cast<std::uint64_t>(sys.fabric().dirEntries()));
    // mesh() has no const overload; reading the link-wait total does not
    // change the fabric.
    auto &fabric = const_cast<coher::CoherenceFabric &>(sys.fabric());
    add("mesh.link_wait_cycles",
        static_cast<std::uint64_t>(fabric.mesh().totalLinkWait()));
    return s;
}

double
statValue(const Stats &s, const std::string &name)
{
    for (const auto &[k, v] : s) {
        if (k == name)
            return std::stod(v);
    }
    throw std::out_of_range("no statistic named " + name);
}

std::string
firstDifference(const Stats &a, const Stats &b)
{
    for (std::size_t i = 0; i < a.size() || i < b.size(); ++i) {
        if (i >= a.size() || i >= b.size())
            return i < a.size() ? a[i].first : b[i].first;
        if (a[i] != b[i])
            return a[i].first;
    }
    return "";
}

} // namespace simbench
