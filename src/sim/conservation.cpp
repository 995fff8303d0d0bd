/**
 * @file
 * Accounting-conservation audit (see diagnostics.hpp for the catalog).
 *
 * Every invariant here is *exact* except the breakdown-vs-run-cycles
 * sum, which accumulates one floating-point add per retire slot: the
 * tolerance is one cycle plus a 1e-6 relative term, far below any real
 * accounting leak (a lost stall category shows up as whole cycles per
 * event) but comfortably above double rounding over 1e9-cycle runs.
 */

#include "sim/diagnostics.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include "common/breakdown.hpp"
#include "sim/system.hpp"

namespace dbsim::sim {

namespace {

void
checkCounterLe(std::vector<std::string> &out, const char *what,
               std::uint64_t lhs, std::uint64_t rhs)
{
    if (lhs > rhs) {
        std::ostringstream os;
        os << what << ": " << lhs << " > " << rhs;
        out.push_back(os.str());
    }
}

void
checkMshrBound(std::vector<std::string> &out, const char *what,
               const mem::MshrStats &s, std::uint32_t configured)
{
    // The trackers size 64 slots; occupancy beyond the configured file
    // size means an allocation bookkeeping bug.
    for (std::uint32_t n = configured + 1; n <= 64; ++n) {
        if (s.occupancy.fracAtLeast(n) > 0.0 ||
            s.read_occupancy.fracAtLeast(n) > 0.0) {
            std::ostringstream os;
            os << what << ": occupancy reached " << n
               << " with only " << configured << " MSHRs configured";
            out.push_back(os.str());
            break;
        }
    }
}

} // namespace

std::vector<std::string>
conservationViolations(const System &sys, const RunResult &r)
{
    std::vector<std::string> out;

    // --- per-core cycle accounting -----------------------------------
    std::uint64_t instructions = 0;
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const cpu::CoreStats &cs = sys.core(i).stats();
        instructions += cs.instructions;

        const Breakdown &b = sys.core(i).breakdown();
        double sum = 0.0;
        for (std::size_t c = 0; c < static_cast<std::size_t>(StallCat::kCount);
             ++c) {
            const double v = b.cycles[c];
            sum += v;
            if (v < 0.0) {
                std::ostringstream os;
                os << "core " << i << ": negative breakdown slice "
                   << stallCatName(static_cast<StallCat>(c)) << " = " << v;
                out.push_back(os.str());
            }
        }
        const double run = static_cast<double>(cs.run_cycles);
        const double tol = 1.0 + run * 1e-6;
        if (std::abs(sum - run) > tol) {
            std::ostringstream os;
            os << "core " << i << ": breakdown sums to " << sum
               << " but run_cycles = " << cs.run_cycles
               << " (tolerance " << tol << ")";
            out.push_back(os.str());
        }

        // Every core accounts the same post-warmup window.
        const std::uint64_t rc = cs.run_cycles;
        const std::uint64_t window = r.cycles;
        const std::uint64_t diff = rc > window ? rc - window : window - rc;
        if (diff > 1) {
            std::ostringstream os;
            os << "core " << i << ": accounted " << rc
               << " cycles but the run window is " << window;
            out.push_back(os.str());
        }
    }
    if (instructions != r.instructions) {
        std::ostringstream os;
        os << "cores retired " << instructions
           << " instructions but the RunResult reports " << r.instructions;
        out.push_back(os.str());
    }

    // --- node counter cross-consistency ------------------------------
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const Node &n = sys.node(i);
        const NodeStats &ns = n.stats();
        checkCounterLe(out, "l1i_misses <= l1i_fetches", ns.l1i_misses,
                       ns.l1i_fetches);
        checkCounterLe(out, "l1i_sbuf_hits <= l1i_misses", ns.l1i_sbuf_hits,
                       ns.l1i_misses);
        checkCounterLe(out, "l1d_misses <= l1d_accesses", ns.l1d_misses,
                       ns.l1d_accesses);
        checkCounterLe(out, "l2_misses <= l2_accesses", ns.l2_misses,
                       ns.l2_accesses);
        checkCounterLe(out, "itlb misses <= accesses", n.itlbStats().misses,
                       n.itlbStats().accesses);
        checkCounterLe(out, "dtlb misses <= accesses", n.dtlbStats().misses,
                       n.dtlbStats().accesses);
        if (sys.params().node.stream_buffer_entries == 0 &&
            n.streamBufferStats().hits != 0) {
            out.push_back("stream buffer disabled but recorded hits");
        }
        checkMshrBound(out, "l1d MSHRs", n.l1dMshrStats(),
                       sys.params().node.l1d.mshrs);
        checkMshrBound(out, "l2 MSHRs", n.l2MshrStats(),
                       sys.params().node.l2.mshrs);
    }

    // --- fabric ------------------------------------------------------
    const coher::FabricStats &fs = sys.fabric().stats();
    if (sys.numNodes() == 1) {
        if (fs.reads_remote || fs.reads_dirty || fs.writes_remote ||
            fs.writes_dirty) {
            std::ostringstream os;
            os << "single-node machine recorded remote/dirty traffic: "
               << "reads_remote=" << fs.reads_remote
               << " reads_dirty=" << fs.reads_dirty
               << " writes_remote=" << fs.writes_remote
               << " writes_dirty=" << fs.writes_dirty;
            out.push_back(os.str());
        }
    }

    // --- epoch-hash stream -------------------------------------------
    // A restored run may continue under a different interval, so only
    // ordering is checked here; the fuzz-layer oracle (which knows no
    // restore happened) additionally checks exact boundary placement.
    for (std::size_t i = 1; i < r.epoch_hashes.size(); ++i) {
        if (r.epoch_hashes[i].epoch <= r.epoch_hashes[i - 1].epoch) {
            std::ostringstream os;
            os << "epoch-hash stream not strictly increasing at sample " << i
               << " (" << r.epoch_hashes[i - 1].epoch << " then "
               << r.epoch_hashes[i].epoch << ")";
            out.push_back(os.str());
            break;
        }
    }

    return out;
}

} // namespace dbsim::sim
