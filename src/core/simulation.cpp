#include "core/simulation.hpp"

#include "common/log.hpp"
#include "workload/hints.hpp"

namespace dbsim::core {

Simulation::Simulation(const SimConfig &cfg) : cfg_(cfg)
{
    // Reject bad configurations before any simulation state exists --
    // build() and run() may then assume a coherent parameter set.
    cfg_.validate();
}

Simulation::~Simulation() = default;

void
Simulation::build()
{
    system_ = std::make_unique<sim::System>(cfg_.system);

    const std::uint32_t nodes = cfg_.system.num_nodes;
    if (cfg_.workload == WorkloadKind::Oltp) {
        if (cfg_.oltp.num_procs % nodes != 0)
            DBSIM_FATAL("OLTP process count must divide across nodes");
        oltp_ = std::make_unique<workload::OltpWorkload>(cfg_.oltp);
        for (ProcId p = 0; p < cfg_.oltp.num_procs; ++p) {
            std::unique_ptr<trace::TraceSource> src =
                oltp_->makeProcess(p);
            if (cfg_.hint_prefetch || cfg_.hint_flush) {
                workload::HintOptions opts;
                opts.prefetch = cfg_.hint_prefetch;
                opts.flush = cfg_.hint_flush;
                opts.line_bytes = cfg_.system.node.l2.line_bytes;
                if (cfg_.hints_hot_locks_only) {
                    for (const Addr a : oltp_->hotLatches())
                        opts.hot_locks.insert(a);
                }
                src = std::make_unique<workload::HintInserter>(
                    std::move(src), std::move(opts));
            }
            system_->addProcess(std::move(src), p % nodes);
        }
    } else {
        if (cfg_.dss.num_procs % nodes != 0)
            DBSIM_FATAL("DSS process count must divide across nodes");
        dss_ = std::make_unique<workload::DssWorkload>(cfg_.dss);
        for (ProcId p = 0; p < cfg_.dss.num_procs; ++p)
            system_->addProcess(dss_->makeProcess(p), p % nodes);
    }
}

sim::RunResult
Simulation::run()
{
    if (!system_)
        build();
    return system_->run(cfg_.total_instructions,
                        cfg_.warmup_instructions);
}

void
Simulation::prepare()
{
    if (!system_)
        build();
}

Characterization
Simulation::characterize() const
{
    Characterization c;
    if (!system_)
        return c;

    std::uint64_t fetches = 0, i_misses = 0;
    std::uint64_t d_acc = 0, d_miss = 0;
    std::uint64_t l2_acc = 0, l2_miss = 0;
    std::uint64_t itlb_acc = 0, itlb_miss = 0;
    std::uint64_t dtlb_acc = 0, dtlb_miss = 0;
    std::uint64_t br_lookups = 0, br_miss = 0;
    std::uint64_t instructions = 0;

    auto &sys = const_cast<sim::System &>(*system_);
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const auto &ns = sys.node(i).stats();
        fetches += ns.l1i_fetches;
        i_misses += ns.l1i_misses;
        d_acc += ns.l1d_accesses;
        d_miss += ns.l1d_misses;
        l2_acc += ns.l2_accesses;
        l2_miss += ns.l2_misses;
        itlb_acc += sys.node(i).itlbStats().accesses;
        itlb_miss += sys.node(i).itlbStats().misses;
        dtlb_acc += sys.node(i).dtlbStats().accesses;
        dtlb_miss += sys.node(i).dtlbStats().misses;
        const auto &bs = sys.core(i).branchStats();
        br_lookups += bs.lookups();
        br_miss += bs.mispredicts();
        instructions += sys.core(i).stats().instructions;
        c.spec_load_violations += sys.core(i).stats().spec_load_violations;
    }

    auto rate = [](std::uint64_t n, std::uint64_t d) {
        return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
    };
    c.l1i_miss_per_fetch = rate(i_misses, fetches);
    c.l1i_mpki = instructions
                     ? 1000.0 * static_cast<double>(i_misses) /
                           static_cast<double>(instructions)
                     : 0.0;
    c.l1d_miss_rate = rate(d_miss, d_acc);
    c.l2_miss_rate = rate(l2_miss, l2_acc);
    c.branch_mispredict_rate = rate(br_miss, br_lookups);
    c.itlb_miss_rate = rate(itlb_miss, itlb_acc);
    c.dtlb_miss_rate = rate(dtlb_miss, dtlb_acc);
    c.dirty_misses = sys.fabric().stats().dirtyMisses();
    c.total_l2_misses = sys.fabric().stats().totalMisses();
    return c;
}

} // namespace dbsim::core
