#include "core/config.hpp"

#include <sstream>
#include <string>

#include "common/errors.hpp"
#include "cpu/consistency.hpp"

namespace dbsim::core {

namespace {

void
validateSga(const std::string &prefix, const workload::SgaParams &sga)
{
    if (sga.block_bytes == 0) {
        throw ConfigError(prefix + ".block_bytes",
                          "a database block must hold at least one byte");
    }
    if (sga.buffer_blocks == 0) {
        throw ConfigError(prefix + ".buffer_blocks",
                          "the block buffer needs at least one block");
    }
    if (sga.code_bytes == 0) {
        throw ConfigError(prefix + ".code_bytes",
                          "the engine needs a nonzero instruction footprint");
    }
}

} // namespace

void
SimConfig::validate() const
{
    system.validate();

    if (total_instructions == 0) {
        throw ConfigError("total_instructions",
                          "the run budget must cover at least one "
                          "instruction");
    }
    if (warmup_instructions >= total_instructions) {
        throw ConfigError(
            "warmup_instructions",
            "warmup (" + std::to_string(warmup_instructions) +
                ") must be smaller than the total budget (" +
                std::to_string(total_instructions) +
                "), or the measured window is empty");
    }

    const std::uint32_t procs =
        workload == WorkloadKind::Oltp ? oltp.num_procs : dss.num_procs;
    const std::string procs_field = workload == WorkloadKind::Oltp
                                        ? "oltp.num_procs"
                                        : "dss.num_procs";
    if (procs == 0) {
        throw ConfigError(procs_field,
                          "the workload needs at least one process");
    }
    if (procs % system.num_nodes != 0) {
        throw ConfigError(procs_field,
                          std::to_string(procs) + " processes cannot be "
                          "spread evenly over " +
                              std::to_string(system.num_nodes) +
                              " nodes; use a multiple of the node count");
    }

    if (workload == WorkloadKind::Oltp) {
        validateSga("oltp.sga", oltp.sga);
        if (oltp.branches == 0) {
            throw ConfigError("oltp.branches",
                              "TPC-B needs at least one branch");
        }
        if (oltp.hash_buckets == 0) {
            throw ConfigError("oltp.hash_buckets",
                              "the buffer hash table needs at least one "
                              "bucket");
        }
        if (oltp.local_branch_prob < 0.0 || oltp.local_branch_prob > 1.0) {
            throw ConfigError("oltp.local_branch_prob",
                              "must be a probability in [0, 1], got " +
                                  std::to_string(oltp.local_branch_prob));
        }
        if (oltp.commits_per_group == 0) {
            throw ConfigError("oltp.commits_per_group",
                              "group commit needs at least one transaction "
                              "per log write");
        }
    } else {
        validateSga("dss.sga", dss.sga);
        if (dss.row_bytes == 0) {
            throw ConfigError("dss.row_bytes",
                              "a scanned row must touch at least one byte");
        }
        if (dss.table_bytes < dss.sga.block_bytes) {
            throw ConfigError("dss.table_bytes",
                              "the scanned relation (" +
                                  std::to_string(dss.table_bytes) +
                                  " bytes) must span at least one database "
                                  "block (" +
                                  std::to_string(dss.sga.block_bytes) +
                                  " bytes)");
        }
        if (dss.selectivity < 0.0 || dss.selectivity > 1.0) {
            throw ConfigError("dss.selectivity",
                              "must be a fraction in [0, 1], got " +
                                  std::to_string(dss.selectivity));
        }
    }
}

const char *
workloadName(WorkloadKind k)
{
    return k == WorkloadKind::Oltp ? "OLTP" : "DSS";
}

std::uint32_t
SimConfig::procsPerCpu() const
{
    const std::uint32_t procs = workload == WorkloadKind::Oltp
                                    ? oltp.num_procs
                                    : dss.num_procs;
    return procs / system.num_nodes;
}

SimConfig
makeScaledConfig(WorkloadKind kind, std::uint32_t num_nodes)
{
    SimConfig cfg;
    cfg.workload = kind;
    cfg.system.num_nodes = num_nodes;

    // Scaled memory hierarchy: 1/8 of the paper's sizes, same ratios.
    cfg.system.node.l1i = {16 * 1024, 2, 64, 1, 8, 1};
    cfg.system.node.l1d = {16 * 1024, 2, 64, 1, 8, 2};
    cfg.system.node.l2 = {512 * 1024, 4, 64, 20, 8, 1};
    cfg.system.node.page_bytes = 8192;
    cfg.system.node.itlb_entries = 128;
    cfg.system.node.dtlb_entries = 128;
    cfg.system.page_bins = 16; // L2 page colors: 512K / (4 * 8K)

    cfg.system.core = cpu::CoreParams{};
    cfg.system.core.context_switch_cost = 300;

    if (kind == WorkloadKind::Oltp) {
        cfg.oltp.num_procs = 8 * num_nodes;
        // Instruction footprint 70 KB (560 KB / 8): overwhelms the
        // 16 KB L1I, fits the 512 KB L2 -- as in the paper.
        cfg.oltp.sga.code_bytes = 70 * 1024;
        cfg.oltp.sga.block_bytes = 2048;
        cfg.oltp.sga.buffer_blocks = 8192; // 16 MB block buffer >> L2
        cfg.oltp.sga.metadata_bytes = 2 << 20;
        cfg.total_instructions = 2'000'000;
        cfg.warmup_instructions = 400'000;
    } else {
        cfg.dss.num_procs = 4 * num_nodes;
        cfg.dss.sga.code_bytes = 12 * 1024; // fits L1I
        cfg.dss.table_bytes = 48ull << 20;
        cfg.total_instructions = 2'000'000;
        cfg.warmup_instructions = 400'000;
    }
    return cfg;
}

SimConfig
makePaperScaleConfig(WorkloadKind kind, std::uint32_t num_nodes)
{
    SimConfig cfg = makeScaledConfig(kind, num_nodes);
    cfg.system.node.l1i = {128 * 1024, 2, 64, 1, 8, 1};
    cfg.system.node.l1d = {128 * 1024, 2, 64, 1, 8, 2};
    cfg.system.node.l2 = {8 * 1024 * 1024, 4, 64, 20, 8, 1};
    cfg.system.page_bins = 256;
    if (kind == WorkloadKind::Oltp) {
        cfg.oltp.sga.code_bytes = 560 * 1024;
        cfg.oltp.sga.buffer_blocks = 65536; // 128 MB block buffer
        cfg.oltp.sga.metadata_bytes = 16 << 20;
    } else {
        cfg.dss.table_bytes = 500ull << 20;
        cfg.dss.sga.buffer_blocks = 262144;
        cfg.dss.workarea_bytes = 768 * 1024;
    }
    cfg.total_instructions = 200'000'000;
    cfg.warmup_instructions = 20'000'000;
    return cfg;
}

std::string
describe(const SimConfig &cfg)
{
    std::ostringstream os;
    os << workloadName(cfg.workload) << " nodes=" << cfg.system.num_nodes
       << " procs/cpu=" << cfg.procsPerCpu()
       << (cfg.system.core.out_of_order ? " ooo" : " inorder")
       << " width=" << cfg.system.core.issue_width
       << " window=" << cfg.system.core.window_size
       << " mshrs=" << cfg.system.node.l1d.mshrs
       << " model=" << cpu::consistencyModelName(cfg.system.core.model);
    if (cfg.system.core.cons.hw_prefetch)
        os << "+pf";
    if (cfg.system.core.cons.spec_loads)
        os << "+spec";
    if (cfg.system.node.stream_buffer_entries)
        os << " sbuf=" << cfg.system.node.stream_buffer_entries;
    if (cfg.hint_prefetch || cfg.hint_flush) {
        os << " hints=";
        if (cfg.hint_prefetch)
            os << "P";
        if (cfg.hint_flush)
            os << "F";
    }
    return os.str();
}

} // namespace dbsim::core
