#include "core/config_gen.hpp"

#include <initializer_list>
#include <type_traits>

#include "common/snapshot.hpp"
#include "cpu/consistency.hpp"

namespace dbsim::core {

namespace {

/** Uniform pick from a small literal choice set. */
std::uint64_t
pick(Rng &rng, std::initializer_list<std::uint64_t> xs)
{
    const std::uint64_t *it = xs.begin();
    return it[rng.below(xs.size())];
}

double
pickd(Rng &rng, std::initializer_list<double> xs)
{
    const double *it = xs.begin();
    return it[rng.below(xs.size())];
}

} // namespace

SimConfig
randomSimConfig(Rng &rng, const FuzzSpace &space)
{
    // Node count: powers of two up to the space bound (the fabric
    // supports any 1..32, but the paper's machines and the scheduler
    // tests live on power-of-two meshes).
    std::uint32_t nodes = 1;
    {
        std::uint32_t choices = 0;
        for (std::uint32_t n = 1; n <= space.max_nodes; n *= 2)
            ++choices;
        const std::uint32_t idx =
            static_cast<std::uint32_t>(rng.below(choices ? choices : 1));
        nodes = 1u << idx;
    }
    const WorkloadKind kind =
        rng.chance(0.5) ? WorkloadKind::Oltp : WorkloadKind::Dss;
    SimConfig cfg = makeScaledConfig(kind, nodes);

    // ----- cache hierarchy -------------------------------------------
    const std::uint32_t line =
        static_cast<std::uint32_t>(pick(rng, {32, 64}));
    cfg.system.node.l1i.size_bytes = pick(rng, {8 * 1024, 16 * 1024, 32 * 1024});
    cfg.system.node.l1i.assoc = static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.node.l1i.line_bytes = line;
    cfg.system.node.l1i.mshrs = static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
    cfg.system.node.l1d.size_bytes = pick(rng, {8 * 1024, 16 * 1024, 32 * 1024});
    cfg.system.node.l1d.assoc = static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.node.l1d.line_bytes = line;
    cfg.system.node.l1d.mshrs =
        static_cast<std::uint32_t>(pick(rng, {1, 2, 4, 8, 16}));
    cfg.system.node.l1d.ports = static_cast<std::uint32_t>(pick(rng, {1, 2}));
    cfg.system.node.l2.size_bytes =
        pick(rng, {128 * 1024, 256 * 1024, 512 * 1024});
    cfg.system.node.l2.assoc = static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
    cfg.system.node.l2.line_bytes = line;
    cfg.system.node.l2.hit_time = pick(rng, {12, 20});
    cfg.system.node.l2.mshrs = static_cast<std::uint32_t>(pick(rng, {4, 8, 16}));
    cfg.system.node.l2_port_hold = pick(rng, {2, 4});

    cfg.system.node.page_bytes =
        static_cast<std::uint32_t>(pick(rng, {4096, 8192}));
    cfg.system.node.itlb_entries =
        static_cast<std::uint32_t>(pick(rng, {16, 64, 128}));
    cfg.system.node.dtlb_entries =
        static_cast<std::uint32_t>(pick(rng, {16, 64, 128}));
    cfg.system.node.tlb_miss_penalty = pick(rng, {20, 40});
    cfg.system.node.perfect_icache = rng.chance(0.1);
    cfg.system.node.perfect_itlb = rng.chance(0.1);
    cfg.system.node.perfect_dtlb = rng.chance(0.1);
    cfg.system.node.stream_buffer_entries =
        static_cast<std::uint32_t>(pick(rng, {0, 0, 4, 8}));
    cfg.system.page_bins = static_cast<std::uint32_t>(pick(rng, {8, 16, 32}));

    // ----- core ------------------------------------------------------
    cfg.system.core.out_of_order = rng.chance(0.7);
    cfg.system.core.issue_width =
        static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.core.window_size =
        static_cast<std::uint32_t>(pick(rng, {16, 32, 64}));
    cfg.system.core.mem_queue_size =
        static_cast<std::uint32_t>(pick(rng, {8, 16, 32}));
    cfg.system.core.write_buffer_size =
        static_cast<std::uint32_t>(pick(rng, {4, 8, 16}));
    cfg.system.core.max_spec_branches =
        static_cast<std::uint32_t>(pick(rng, {4, 8}));
    cfg.system.core.fetch_line_bytes = line;
    switch (pick(rng, {0, 1, 2})) {
    case 0: cfg.system.core.model = cpu::ConsistencyModel::SC; break;
    case 1: cfg.system.core.model = cpu::ConsistencyModel::PC; break;
    default: cfg.system.core.model = cpu::ConsistencyModel::RC; break;
    }
    cfg.system.core.cons.hw_prefetch = rng.chance(0.5);
    cfg.system.core.cons.spec_loads = rng.chance(0.5);

    // ----- fabric / interconnect -------------------------------------
    cfg.system.fabric.adaptive_migratory = rng.chance(0.5);
    cfg.system.fabric.flush_invalidates = rng.chance(0.25);
    cfg.system.fabric.migratory_read_factor = rng.chance(0.25) ? 0.6 : 1.0;
    cfg.system.mesh.router_delay =
        static_cast<std::uint32_t>(pick(rng, {2, 4}));
    cfg.system.mesh.wire_delay = static_cast<std::uint32_t>(pick(rng, {1, 2}));
    cfg.system.sched_quantum = pick(rng, {50'000, 200'000});

    // ----- workload --------------------------------------------------
    if (kind == WorkloadKind::Oltp) {
        const std::uint32_t ppc =
            static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
        cfg.oltp.num_procs = ppc * nodes;
        cfg.oltp.branches = static_cast<std::uint32_t>(pick(rng, {8, 40}));
        cfg.oltp.local_branch_prob = pickd(rng, {0.5, 0.85, 1.0});
        cfg.oltp.commits_per_group =
            static_cast<std::uint32_t>(pick(rng, {1, 8}));
        cfg.oltp.buffer_zipf_skew = pickd(rng, {0.0, 0.5, 1.0});
        cfg.oltp.sga.code_bytes = pick(rng, {24 * 1024, 70 * 1024});
        cfg.oltp.seed = rng.range(1, 1u << 20);
        cfg.hint_prefetch = rng.chance(0.3);
        cfg.hint_flush = rng.chance(0.3);
        cfg.hints_hot_locks_only = rng.chance(0.5);
    } else {
        const std::uint32_t ppc =
            static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
        cfg.dss.num_procs = ppc * nodes;
        cfg.dss.selectivity = pickd(rng, {0.0, 0.02, 0.5, 1.0});
        // Stays within the default 64 MB block buffer.
        cfg.dss.table_bytes = pick(rng, {8ull << 20, 16ull << 20, 48ull << 20});
        cfg.dss.seed = rng.range(1, 1u << 20);
    }

    // ----- run budgets / observation ---------------------------------
    // Budgets are total across CPUs; round to 1k for readable repros.
    const std::uint64_t span =
        space.max_instructions > space.min_instructions
            ? space.max_instructions - space.min_instructions
            : 0;
    cfg.total_instructions =
        ((space.min_instructions + (span ? rng.below(span + 1) : 0)) / 1000) *
        1000;
    if (cfg.total_instructions == 0)
        cfg.total_instructions = 1000;
    cfg.warmup_instructions =
        rng.chance(0.5) ? cfg.total_instructions / 8 : 0;
    cfg.system.state_hash_interval = pick(rng, {2000, 4000, 8000});

    // Generator contract: every generated config is valid.
    cfg.validate();
    return cfg;
}

std::uint64_t
simConfigSignature(const SimConfig &cfg)
{
    snap::Writer w;
    w.u32(cfg.system.num_nodes);
    for (const sim::CacheLevelParams *lvl :
         {&cfg.system.node.l1i, &cfg.system.node.l1d, &cfg.system.node.l2}) {
        w.u64(lvl->size_bytes);
        w.u32(lvl->assoc);
        w.u32(lvl->line_bytes);
        w.u64(lvl->hit_time);
        w.u32(lvl->mshrs);
        w.u32(lvl->ports);
    }
    w.u32(cfg.system.node.itlb_entries);
    w.u32(cfg.system.node.dtlb_entries);
    w.u32(cfg.system.node.page_bytes);
    w.u64(cfg.system.node.tlb_miss_penalty);
    w.u32(cfg.system.node.stream_buffer_entries);
    w.boolean(cfg.system.node.perfect_icache);
    w.boolean(cfg.system.node.perfect_itlb);
    w.boolean(cfg.system.node.perfect_dtlb);
    w.u64(cfg.system.node.l2_port_hold);

    const cpu::CoreParams &c = cfg.system.core;
    w.boolean(c.out_of_order);
    w.u32(c.issue_width);
    w.u32(c.window_size);
    w.u32(c.mem_queue_size);
    w.u32(c.write_buffer_size);
    w.u32(c.max_spec_branches);
    w.u32(c.mispredict_restart);
    w.u32(c.rollback_penalty);
    w.u32(c.fetch_line_bytes);
    w.u32(c.spin_retry_interval);
    w.u64(c.spin_yield_threshold);
    w.u64(c.context_switch_cost);
    w.u8(static_cast<std::uint8_t>(c.model));
    w.boolean(c.cons.hw_prefetch);
    w.boolean(c.cons.spec_loads);

    const coher::FabricParams &f = cfg.system.fabric;
    w.u64(f.bus_hold);
    w.u64(f.dir_hold);
    w.u64(f.dram_hold);
    w.u64(f.resp_overhead);
    w.u64(f.owner_l2_hold);
    w.u64(f.c2c_extra);
    w.f64(f.migratory_read_factor);
    w.boolean(f.adaptive_migratory);
    w.boolean(f.flush_invalidates);

    const net::MeshParams &m = cfg.system.mesh;
    w.u32(m.router_delay);
    w.u32(m.wire_delay);
    w.u32(m.inject_delay);
    w.u32(m.ctrl_flits);
    w.u32(m.data_flits);

    w.u64(cfg.system.sched_quantum);
    w.u32(cfg.system.page_bins);

    w.u8(cfg.workload == WorkloadKind::Oltp ? 0 : 1);
    if (cfg.workload == WorkloadKind::Oltp) {
        const workload::OltpParams &o = cfg.oltp;
        w.u32(o.num_procs);
        w.u32(o.branches);
        w.u32(o.tellers_per_branch);
        w.u32(o.accounts_per_branch);
        w.u32(o.hash_buckets);
        w.f64(o.local_branch_prob);
        w.u64(o.log_io_latency);
        w.u32(o.commits_per_group);
        w.u32(o.parse_routine_calls);
        w.u32(o.compute_per_routine);
        w.u32(o.private_refs_per_routine);
        w.f64(o.buffer_zipf_skew);
        w.u32(o.redo_copy_latches);
        w.u64(o.seed);
        w.u64(o.sga.code_bytes);
        w.u32(o.sga.block_bytes);
        w.u32(o.sga.buffer_blocks);
        w.u64(o.sga.metadata_bytes);
        w.u64(o.sga.log_buffer_bytes);
        w.u64(o.sga.private_bytes);
    } else {
        const workload::DssParams &d = cfg.dss;
        w.u32(d.num_procs);
        w.u64(d.table_bytes);
        w.u32(d.row_bytes);
        w.f64(d.selectivity);
        w.u32(d.table_refs_per_row);
        w.u32(d.private_refs_per_row);
        w.f64(d.workarea_chance);
        w.u64(d.workarea_bytes);
        w.u32(d.compute_per_row);
        w.u32(d.block_epilogue_compute);
        w.u64(d.seed);
        w.u64(d.sga.code_bytes);
        w.u32(d.sga.block_bytes);
        w.u32(d.sga.buffer_blocks);
        w.u64(d.sga.metadata_bytes);
        w.u64(d.sga.log_buffer_bytes);
        w.u64(d.sga.private_bytes);
    }

    w.boolean(cfg.hint_prefetch);
    w.boolean(cfg.hint_flush);
    w.boolean(cfg.hints_hot_locks_only);
    w.u64(cfg.total_instructions);
    w.u64(cfg.warmup_instructions);
    return w.hash();
}

namespace {

/** The values of @p xs below @p cur: a knob's shrink candidates. */
std::vector<std::uint64_t>
below(std::initializer_list<std::uint64_t> xs, std::uint64_t cur)
{
    std::vector<std::uint64_t> out;
    for (const std::uint64_t x : xs)
        if (x < cur)
            out.push_back(x);
    return out;
}

void
setProcsPerCpu(SimConfig &cfg, std::uint32_t ppc)
{
    if (cfg.workload == WorkloadKind::Oltp)
        cfg.oltp.num_procs = ppc * cfg.system.num_nodes;
    else
        cfg.dss.num_procs = ppc * cfg.system.num_nodes;
}

/**
 * A knob reached by @p field (`[](auto &c) -> auto & { return ...; }`):
 * it takes any value from @p floor up, cast to the field's type (so a
 * bool reads "nonzero"), and shrinks to @p floor.
 */
template <typename Field>
ConfigOverride
knob(const char *key, std::uint64_t floor, Field field)
{
    return {key,
            [floor, field](SimConfig &cfg, std::uint64_t v) {
                if (v < floor)
                    return false;
                auto &f = field(cfg);
                f = static_cast<std::remove_reference_t<decltype(f)>>(v);
                return true;
            },
            [floor, field](const SimConfig &cfg, const FuzzSpace &) {
                return below({floor}, field(cfg));
            }};
}

} // namespace

const std::vector<ConfigOverride> &
configOverrides()
{
    // Shrink order: structural reductions first (node count, run
    // length), then feature knock-outs from most to least exotic.
    static const std::vector<ConfigOverride> kCatalog = {
        {"num_nodes",
         [](SimConfig &cfg, std::uint64_t v) {
             if (v == 0)
                 return false;
             const std::uint32_t ppc = cfg.procsPerCpu();
             cfg.system.num_nodes = static_cast<std::uint32_t>(v);
             setProcsPerCpu(cfg, ppc);
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &) {
             return below({1, 2, 4}, cfg.system.num_nodes);
         }},
        {"total_instructions",
         [](SimConfig &cfg, std::uint64_t v) {
             cfg.total_instructions = v;
             if (cfg.warmup_instructions >= v)
                 cfg.warmup_instructions = v / 8;
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &space) {
             return below({space.min_instructions}, cfg.total_instructions);
         }},
        knob("warmup_instructions", 0,
             [](auto &c) -> auto & { return c.warmup_instructions; }),
        {"procs_per_cpu",
         [](SimConfig &cfg, std::uint64_t v) {
             if (v == 0)
                 return false;
             setProcsPerCpu(cfg, static_cast<std::uint32_t>(v));
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &) {
             return below({1, 2}, cfg.procsPerCpu());
         }},
        knob("stream_buffer_entries", 0, [](auto &c) -> auto & {
            return c.system.node.stream_buffer_entries;
        }),
        knob("hint_prefetch", 0,
             [](auto &c) -> auto & { return c.hint_prefetch; }),
        knob("hint_flush", 0, [](auto &c) -> auto & { return c.hint_flush; }),
        knob("adaptive_migratory", 0, [](auto &c) -> auto & {
            return c.system.fabric.adaptive_migratory;
        }),
        knob("flush_invalidates", 0, [](auto &c) -> auto & {
            return c.system.fabric.flush_invalidates;
        }),
        {"migratory_read_factor_x100",
         [](SimConfig &cfg, std::uint64_t v) {
             if (v == 0)
                 return false;
             cfg.system.fabric.migratory_read_factor =
                 static_cast<double>(v) / 100.0;
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &) {
             // Factor 1.0 turns migratory reads off.
             return cfg.system.fabric.migratory_read_factor != 1.0
                        ? std::vector<std::uint64_t>{100}
                        : std::vector<std::uint64_t>{};
         }},
        knob("spec_loads", 0,
             [](auto &c) -> auto & { return c.system.core.cons.spec_loads; }),
        knob("hw_prefetch", 0,
             [](auto &c) -> auto & { return c.system.core.cons.hw_prefetch; }),
        knob("out_of_order", 0,
             [](auto &c) -> auto & { return c.system.core.out_of_order; }),
        {"model",
         [](SimConfig &cfg, std::uint64_t v) {
             if (v > 2)
                 return false;
             cfg.system.core.model = static_cast<cpu::ConsistencyModel>(v);
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &) {
             return below({0},
                          static_cast<std::uint64_t>(cfg.system.core.model));
         }},
        {"issue_width",
         [](SimConfig &cfg, std::uint64_t v) {
             if (v == 0)
                 return false;
             cfg.system.core.issue_width = static_cast<std::uint32_t>(v);
             if (cfg.system.core.window_size < cfg.system.core.issue_width)
                 cfg.system.core.window_size = cfg.system.core.issue_width;
             return true;
         },
         [](const SimConfig &cfg, const FuzzSpace &) {
             return below({1}, cfg.system.core.issue_width);
         }},
        knob("l1d_mshrs", 1,
             [](auto &c) -> auto & { return c.system.node.l1d.mshrs; }),
        // An observation knob: it changes what the oracles see, not
        // what the machine does, so shrinking it could only mask a
        // finding.
        {"state_hash_interval",
         [](SimConfig &cfg, std::uint64_t v) {
             cfg.system.state_hash_interval = v;
             return true;
         },
         [](const SimConfig &, const FuzzSpace &) {
             return std::vector<std::uint64_t>{};
         }},
    };
    return kCatalog;
}

bool
applyConfigOverride(SimConfig &cfg, const std::string &key,
                    std::uint64_t value)
{
    for (const ConfigOverride &o : configOverrides())
        if (key == o.key)
            return o.apply(cfg, value);
    return false;
}

} // namespace dbsim::core
