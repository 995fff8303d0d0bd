#include "verify/model_checker.hpp"

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "coherence/checker.hpp"
#include "common/log.hpp"

namespace dbsim::verify {

namespace {

/** Block addresses are spaced one line apart, starting nonzero so a
 *  zero Addr always means "no block". */
constexpr Addr kBlockBytes = 64;

Addr
addrOf(std::uint32_t block)
{
    return (static_cast<Addr>(block) + 1) * kBlockBytes;
}

class Machine;

/**
 * The model cache site: one MESI state + data version per block.  A
 * version number stands in for the line's data; the harness checks
 * reads observe the version of the globally most recent write.
 */
class ModelSite final : public coher::CacheSite
{
  public:
    void attach(Machine *m, std::uint32_t node);

    mem::CoherState siteState(Addr block) override;
    void siteInvalidate(Addr block) override;
    void siteDowngrade(Addr block) override;

  private:
    Machine *m_ = nullptr;
    std::uint32_t node_ = 0;
};

/**
 * One concrete machine: the real fabric + real dynamic checker
 * (collecting mode) + model sites + the value model.  Machines are
 * rebuilt by replaying a schedule prefix; all protocol state lives in
 * the fabric and the sites, so replay is deterministic.
 */
class Machine
{
  public:
    explicit Machine(const McConfig &cfg)
        : cfg_(&cfg), mut_{cfg.bug}, fabric_(cfg.nodes, cfg.fabric),
          sites_(cfg.nodes),
          lines_(static_cast<std::size_t>(cfg.nodes) * cfg.blocks),
          mem_ver_(cfg.blocks, 0), latest_(cfg.blocks, 0)
    {
        for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
            sites_[n].attach(this, n);
            fabric_.attachSite(n, &sites_[n]);
        }
        fabric_.attachChecker(&checker_);
        fabric_.attachMutator(&mut_);
    }

    // The fabric and the sites hold pointers into this object.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Apply one step; false iff an invariant was violated. */
    bool
    apply(const McStep &s)
    {
        switch (s.op) {
          case McOp::Read:  applyRead(s);  break;
          case McOp::Write: applyWrite(s); break;
          case McOp::Evict: applyEvict(s); break;
          case McOp::Flush: applyFlush(s); break;
        }
        if (violation_.empty())
            checkInvariants(s);
        return violation_.empty();
    }

    /** Audit the quiesced machine once more (terminal states). */
    bool
    finalAudit()
    {
        for (std::uint32_t b = 0; b < cfg_->blocks && violation_.empty();
             ++b) {
            checker_.auditBlock(fabric_, addrOf(b), "quiescence", now_);
            reapCheckerViolations();
        }
        return violation_.empty();
    }

    const std::string &violation() const { return violation_; }
    std::uint64_t mutationFires() const { return mut_.triggers; }

    /**
     * Canonical state key: program counters are appended by the caller.
     * Data versions are relabeled in order of first appearance so that
     * schedules reaching isomorphic states collide.
     */
    std::string
    stateKey() const
    {
        std::ostringstream os;
        std::map<std::uint64_t, std::uint64_t> relabel;
        auto canon = [&](std::uint64_t v) {
            auto [it, fresh] = relabel.try_emplace(v, relabel.size());
            (void)fresh;
            return it->second;
        };
        for (std::uint32_t b = 0; b < cfg_->blocks; ++b) {
            const coher::DirSnapshot d = fabric_.dirState(addrOf(b));
            os << 'd' << d.owner << ',' << d.sharers << ','
               << d.last_writer << ','
               << fabric_.migratory().isMigratory(addrOf(b)) << ','
               << canon(mem_ver_[b]) << ',' << canon(latest_[b]) << ';';
            for (std::uint32_t n = 0; n < cfg_->nodes; ++n) {
                const Line &ln = line(n, b);
                os << static_cast<int>(ln.st) << ','
                   << (ln.st == mem::CoherState::Invalid ? 0 : canon(ln.ver))
                   << ';';
            }
        }
        return os.str();
    }

    /** Human-readable machine state (for counterexample dumps). */
    std::string
    dump() const
    {
        std::ostringstream os;
        for (std::uint32_t b = 0; b < cfg_->blocks; ++b) {
            const coher::DirSnapshot d = fabric_.dirState(addrOf(b));
            os << "block b" << b << ": dir owner=" << d.owner
               << " sharers=0x" << std::hex << d.sharers << std::dec
               << " migratory="
               << fabric_.migratory().isMigratory(addrOf(b))
               << " mem=v" << mem_ver_[b] << " latest=v" << latest_[b];
            for (std::uint32_t n = 0; n < cfg_->nodes; ++n) {
                const Line &ln = line(n, b);
                os << " | n" << n << '=' << mem::coherStateName(ln.st);
                if (ln.st != mem::CoherState::Invalid)
                    os << ":v" << ln.ver;
            }
            os << '\n';
        }
        return os.str();
    }

  private:
    friend class ModelSite;

    struct Line
    {
        mem::CoherState st = mem::CoherState::Invalid;
        std::uint64_t ver = 0;
    };

    Line &
    line(std::uint32_t node, std::uint32_t block)
    {
        return lines_[static_cast<std::size_t>(node) * cfg_->blocks + block];
    }

    const Line &
    line(std::uint32_t node, std::uint32_t block) const
    {
        return lines_[static_cast<std::size_t>(node) * cfg_->blocks + block];
    }

    std::uint32_t homeOf(std::uint32_t block) const
    {
        return block % cfg_->nodes;
    }

    /** Distinct PC per (node, block) so migratory PC stats stay sane. */
    Addr pcFor(const McStep &s) const
    {
        return 0x1000 + s.node * 0x100 + s.block * 0x10;
    }

    void
    applyRead(const McStep &s)
    {
        Line &ln = line(s.node, s.block);
        std::uint64_t observed;
        if (ln.st != mem::CoherState::Invalid) {
            // Cache hit: served locally, never reaches the fabric --
            // which is exactly how a dropped invalidation or a lost
            // sharer bit becomes a user-visible stale read.
            observed = ln.ver;
        } else {
            const Addr a = addrOf(s.block);
            const coher::DirSnapshot pre = fabric_.dirState(a);
            const std::uint64_t pre_owner_ver =
                pre.owner >= 0
                    ? line(static_cast<std::uint32_t>(pre.owner), s.block).ver
                    : 0;
            const coher::FabricResult r =
                fabric_.read(s.node, a, homeOf(s.block), now_, pcFor(s));
            advance(r.ready);
            // A cache-to-cache transfer carries the dirty owner's data;
            // every other service source is the home memory.
            observed = r.cls == coher::AccessClass::RemoteDirty
                           ? pre_owner_ver
                           : mem_ver_[s.block];
            ln.st = r.grant;
            ln.ver = observed;
        }
        if (observed != latest_[s.block]) {
            std::ostringstream os;
            os << "data-value invariant violated: " << mcStepString(s)
               << " observed v" << observed << " but the latest write is v"
               << latest_[s.block];
            violation_ = os.str();
        }
    }

    void
    applyWrite(const McStep &s)
    {
        Line &ln = line(s.node, s.block);
        if (ln.st == mem::CoherState::Invalid ||
            ln.st == mem::CoherState::Shared) {
            const coher::FabricResult r =
                fabric_.write(s.node, addrOf(s.block), homeOf(s.block), now_,
                              pcFor(s));
            advance(r.ready);
            ln.st = r.grant;
        } else {
            // Write hit: Exclusive upgrades to Modified silently,
            // Modified writes in place -- no fabric transaction, as in
            // a real cache controller.
            ln.st = mem::CoherState::Modified;
        }
        ln.ver = ++version_counter_;
        latest_[s.block] = ln.ver;
    }

    void
    applyEvict(const McStep &s)
    {
        Line &ln = line(s.node, s.block);
        if (ln.st == mem::CoherState::Invalid)
            return; // nothing cached; the op degenerates to a no-op
        const bool dirty = ln.st == mem::CoherState::Modified;
        if (dirty)
            mem_ver_[s.block] = ln.ver; // the writeback carries the data
        ln.st = mem::CoherState::Invalid;
        fabric_.evict(s.node, addrOf(s.block), homeOf(s.block), dirty, now_);
        ++now_;
    }

    void
    applyFlush(const McStep &s)
    {
        // The fabric validates ownership itself; the model site's
        // downgrade performs the writeback when it fires.
        const Cycles done =
            fabric_.flush(s.node, addrOf(s.block), homeOf(s.block), now_);
        if (done != kNever)
            advance(done);
    }

    void
    checkInvariants(const McStep &s)
    {
        // I1-I3 via the real dynamic checker.
        checker_.auditPending(fabric_, now_);
        reapCheckerViolations();
        if (!violation_.empty())
            return;

        for (std::uint32_t b = 0; b < cfg_->blocks; ++b) {
            // Strict SWMR over the model sites.
            int strong = -1;
            std::uint32_t valid = 0;
            for (std::uint32_t n = 0; n < cfg_->nodes; ++n) {
                const mem::CoherState st = line(n, b).st;
                if (st == mem::CoherState::Invalid)
                    continue;
                ++valid;
                if (st != mem::CoherState::Shared)
                    strong = static_cast<int>(n);
            }
            if (strong >= 0 && valid > 1) {
                fail(s, b, "SWMR violated: node " + std::to_string(strong) +
                               " holds E/M while another copy is valid");
                return;
            }

            // Strict directory-cache agreement (model evictions are
            // always notified, so no silent-eviction slack is needed).
            const coher::DirSnapshot d = fabric_.dirState(addrOf(b));
            if (d.owner >= 0) {
                const mem::CoherState st =
                    line(static_cast<std::uint32_t>(d.owner), b).st;
                if (st != mem::CoherState::Exclusive &&
                    st != mem::CoherState::Modified) {
                    fail(s, b,
                         "directory records owner node " +
                             std::to_string(d.owner) +
                             " which holds no E/M copy");
                    return;
                }
            }
            for (std::uint32_t n = 0; n < cfg_->nodes; ++n) {
                const bool cached =
                    line(n, b).st != mem::CoherState::Invalid;
                const bool recorded = d.owner == static_cast<int>(n) ||
                                      (d.sharers & (1u << n)) != 0;
                if (cached && !recorded) {
                    fail(s, b,
                         "node " + std::to_string(n) +
                             " holds a copy unknown to the directory");
                    return;
                }
                if (!cached && recorded) {
                    fail(s, b,
                         "directory records node " + std::to_string(n) +
                             " which holds no copy");
                    return;
                }
            }
        }
    }

    void
    fail(const McStep &s, std::uint32_t block, const std::string &what)
    {
        std::ostringstream os;
        os << what << " (block b" << block << ", after " << mcStepString(s)
           << ")";
        violation_ = os.str();
    }

    void
    reapCheckerViolations()
    {
        if (checker_.stats().violations > checker_seen_) {
            checker_seen_ = checker_.stats().violations;
            violation_ = checker_.violations().empty()
                             ? std::string("dynamic checker violation")
                             : checker_.violations().back();
        }
    }

    void
    advance(Cycles t)
    {
        now_ = t > now_ ? t : now_;
        ++now_;
    }

    const McConfig *cfg_;
    ProtocolMutator mut_;
    coher::CoherenceFabric fabric_;
    coher::CoherenceChecker checker_{/*panic_on_violation=*/false};
    std::vector<ModelSite> sites_;
    std::vector<Line> lines_;        ///< [node * blocks + block]
    std::vector<std::uint64_t> mem_ver_; ///< version home memory holds
    std::vector<std::uint64_t> latest_;  ///< version of the latest write
    std::uint64_t version_counter_ = 0;
    std::uint64_t checker_seen_ = 0;
    Cycles now_ = 0;
    std::string violation_;
};

void
ModelSite::attach(Machine *m, std::uint32_t node)
{
    m_ = m;
    node_ = node;
}

mem::CoherState
ModelSite::siteState(Addr block)
{
    const std::uint32_t b = static_cast<std::uint32_t>(block / kBlockBytes) - 1;
    return m_->line(node_, b).st;
}

void
ModelSite::siteInvalidate(Addr block)
{
    const std::uint32_t b = static_cast<std::uint32_t>(block / kBlockBytes) - 1;
    m_->line(node_, b).st = mem::CoherState::Invalid;
}

void
ModelSite::siteDowngrade(Addr block)
{
    const std::uint32_t b = static_cast<std::uint32_t>(block / kBlockBytes) - 1;
    Machine::Line &ln = m_->line(node_, b);
    if (ln.st == mem::CoherState::Modified)
        m_->mem_ver_[b] = ln.ver; // downgrading a dirty line writes back
    if (ln.st != mem::CoherState::Invalid)
        ln.st = mem::CoherState::Shared;
}

/** Replay @p steps on a fresh machine; the index of the violating step
 *  (violation text in @p out), or -1 if the replay is clean. */
int
replayForViolation(const McConfig &cfg, const std::vector<McStep> &steps,
                   std::string *out)
{
    Machine m(cfg);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        if (!m.apply(steps[i])) {
            if (out)
                *out = m.violation();
            return static_cast<int>(i);
        }
    }
    return -1;
}

/** Greedy delta-removal: drop ops whose removal preserves a violation. */
std::vector<McStep>
minimizeTrace(const McConfig &cfg, std::vector<McStep> steps,
              std::string *violation)
{
    bool improved = true;
    while (improved && steps.size() > 1) {
        improved = false;
        for (std::size_t i = 0; i < steps.size(); ++i) {
            std::vector<McStep> cand;
            cand.reserve(steps.size() - 1);
            for (std::size_t j = 0; j < steps.size(); ++j)
                if (j != i)
                    cand.push_back(steps[j]);
            std::string what;
            const int hit = replayForViolation(cfg, cand, &what);
            if (hit >= 0) {
                cand.resize(static_cast<std::size_t>(hit) + 1);
                steps = std::move(cand);
                if (violation)
                    *violation = what;
                improved = true;
                break;
            }
        }
    }
    return steps;
}

} // namespace

const char *
mcOpName(McOp op)
{
    switch (op) {
      case McOp::Read:  return "read";
      case McOp::Write: return "write";
      case McOp::Evict: return "evict";
      case McOp::Flush: return "flush";
    }
    return "?";
}

std::string
mcStepString(const McStep &step)
{
    std::ostringstream os;
    os << 'n' << step.node << ' ' << mcOpName(step.op) << " b" << step.block;
    return os.str();
}

std::string
McResult::traceString() const
{
    std::ostringstream os;
    os << "counterexample (" << trace.size() << " ops) in config '" << config
       << "':\n";
    for (std::size_t i = 0; i < trace.size(); ++i)
        os << "  " << i + 1 << ". " << mcStepString(trace[i]) << '\n';
    if (!violation.empty())
        os << "violation: " << violation << '\n';
    return os.str();
}

ModelChecker::ModelChecker(McConfig cfg, bool panic_on_violation)
    : cfg_(std::move(cfg)), panic_on_violation_(panic_on_violation)
{
    DBSIM_ASSERT(cfg_.nodes >= 1 && cfg_.nodes <= 8, "bad node count");
    DBSIM_ASSERT(cfg_.blocks >= 1 && cfg_.blocks <= 8, "bad block count");
    DBSIM_ASSERT(cfg_.programs.size() == cfg_.nodes,
                 "one program per node required");
    for (const auto &prog : cfg_.programs)
        for (const McStep &s : prog)
            DBSIM_ASSERT(s.node < cfg_.nodes && s.block < cfg_.blocks,
                         "program step out of range");
}

McResult
ModelChecker::check()
{
    McResult res;
    res.config = cfg_.name;

    std::set<std::string> seen;
    std::vector<std::uint32_t> path; // schedule: node index per step
    bool stop = false;

    // The concrete step sequence a schedule denotes.
    auto stepsOf = [&](const std::vector<std::uint32_t> &p) {
        std::vector<McStep> steps;
        std::vector<std::uint32_t> pcs(cfg_.nodes, 0);
        steps.reserve(p.size());
        for (std::uint32_t node : p)
            steps.push_back(cfg_.programs[node][pcs[node]++]);
        return steps;
    };

    // Rebuild a machine by replaying the prefix.  Machines hold
    // self-pointers (fabric -> sites -> machine), so they live on the
    // heap.  Prefixes are only recursed into after being checked
    // clean, and the machine is deterministic in the schedule, so
    // replays cannot violate.
    auto rebuild = [&](const std::vector<std::uint32_t> &p) {
        auto m = std::make_unique<Machine>(cfg_);
        std::vector<std::uint32_t> pcs(cfg_.nodes, 0);
        for (std::uint32_t node : p) {
            const bool clean = m->apply(cfg_.programs[node][pcs[node]++]);
            DBSIM_ASSERT(clean, "replay of a clean prefix violated");
        }
        return m;
    };

    auto recordViolation = [&](Machine &m, std::vector<McStep> steps,
                               bool minimize) {
        res.ok = false;
        res.violation = m.violation();
        res.trace = minimize ? minimizeTrace(cfg_, std::move(steps),
                                             &res.violation)
                             : std::move(steps);
        Machine fin(cfg_);
        for (const McStep &ts : res.trace)
            if (!fin.apply(ts))
                break;
        res.final_dump = fin.dump();
        stop = true;
    };

    std::function<void()> dfs = [&]() {
        if (stop)
            return;
        std::vector<std::uint32_t> pcs(cfg_.nodes, 0);
        for (std::uint32_t n : path)
            ++pcs[n];

        bool terminal = true;
        for (std::uint32_t node = 0; node < cfg_.nodes && !stop; ++node) {
            if (pcs[node] >= cfg_.programs[node].size())
                continue;
            terminal = false;

            auto m = rebuild(path);
            const McStep step = cfg_.programs[node][pcs[node]];
            ++res.transitions;
            const bool clean = m->apply(step);
            res.mutation_fires += m->mutationFires();
            if (!clean) {
                std::vector<McStep> steps = stepsOf(path);
                steps.push_back(step);
                recordViolation(*m, std::move(steps), /*minimize=*/true);
                return;
            }

            std::ostringstream key;
            key << m->stateKey() << "|p";
            for (std::uint32_t n = 0; n < cfg_.nodes; ++n)
                key << (pcs[n] + (n == node ? 1u : 0u)) << ',';
            if (!seen.insert(key.str()).second)
                continue;
            if (seen.size() > cfg_.max_states) {
                res.ok = false;
                res.violation = "state budget exceeded (possible livelock)";
                stop = true;
                return;
            }

            path.push_back(node);
            dfs();
            path.pop_back();
        }

        if (terminal && !stop) {
            ++res.interleavings;
            auto m = rebuild(path);
            if (!m->finalAudit())
                recordViolation(*m, stepsOf(path), /*minimize=*/false);
        }
    };

    dfs();
    res.states = seen.size();
    res.exhausted = res.ok;

    if (!res.ok && panic_on_violation_) {
        const std::string text = res.traceString() + res.final_dump;
        const int dump = registerCrashDump("model-checker counterexample",
                                           [text] { return text; });
        try {
            DBSIM_PANIC("model checker: ", res.violation);
        } catch (...) {
            // Under PanicThrowGuard the panic returns as an exception;
            // drop the one-shot dump so it cannot leak into later,
            // unrelated panics of the embedding process.
            unregisterCrashDump(dump);
            throw;
        }
    }
    return res;
}

} // namespace dbsim::verify
