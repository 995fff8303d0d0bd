#include "verify/litmus.hpp"

#include <set>
#include <sstream>

#include "common/log.hpp"

namespace dbsim::verify {

namespace {

/** Per-instruction execution state. */
struct InstrState
{
    bool performed = false;
    bool bound = false;    ///< load: value consumed speculatively
    bool violated = false; ///< load: bound value invalidated by a store
    int bound_val = 0;
    int value = 0;         ///< load: the committed value
};

/** Full executor state: small and copyable, so DFS copies per event. */
struct ExecState
{
    std::vector<std::vector<InstrState>> st; ///< [thread][instr]
    std::vector<int> mem;                    ///< [var], init 0

    std::string
    key() const
    {
        std::ostringstream os;
        for (const auto &thread : st) {
            for (const InstrState &i : thread)
                os << i.performed << i.bound << i.violated << ','
                   << i.bound_val << ',' << i.value << ';';
            os << '|';
        }
        for (int v : mem)
            os << v << ',';
        return os.str();
    }
};

class LitmusExec
{
  public:
    LitmusExec(const LitmusTest &test, const cpu::ConsistencyPolicy &policy,
               const ProtocolMutator *mutator)
        : test_(test), policy_(policy), mut_(mutator)
    {
    }

    LitmusResult
    run()
    {
        ExecState init;
        init.st.resize(test_.threads.size());
        for (std::size_t t = 0; t < test_.threads.size(); ++t)
            init.st[t].resize(test_.threads[t].size());
        init.mem.assign(test_.num_vars, 0);
        explore(init);
        res_.states = memo_.size();
        return res_;
    }

  private:
    /** Ordering context of instruction @p i in thread @p t. */
    struct Prior
    {
        bool loads_done = true;
        bool stores_done = true;
        bool mb_pending = false;
        bool wmb_pending = false;
        bool all_done = true;
    };

    Prior
    priorOf(const ExecState &s, std::size_t t, std::size_t i) const
    {
        Prior p;
        for (std::size_t j = 0; j < i; ++j) {
            const LitInstr &ins = test_.threads[t][j];
            const bool done = s.st[t][j].performed;
            p.all_done &= done;
            switch (ins.op) {
              case LitOp::Ld:  p.loads_done &= done; break;
              case LitOp::St:  p.stores_done &= done; break;
              case LitOp::Mb:  p.mb_pending |= !done; break;
              case LitOp::Wmb: p.wmb_pending |= !done; break;
            }
        }
        return p;
    }

    bool
    mayPerform(const ExecState &s, std::size_t t, std::size_t i) const
    {
        const LitInstr &ins = test_.threads[t][i];
        const Prior p = priorOf(s, t, i);
        switch (ins.op) {
          case LitOp::Ld:
            return !p.mb_pending &&
                   policy_.loadMayIssue(p.loads_done, p.stores_done);
          case LitOp::St:
            if (p.wmb_pending &&
                !(mut_ && mut_->armed(ProtocolBug::ReorderedRelease)))
                return false; // WMB epoch ordering (writeBufferStage)
            return !p.mb_pending &&
                   policy_.storeMayIssue(p.loads_done, p.stores_done);
          case LitOp::Mb:
            return p.all_done;
          case LitOp::Wmb:
            return p.stores_done;
        }
        return false;
    }

    bool
    mayBind(const ExecState &s, std::size_t t, std::size_t i) const
    {
        const LitInstr &ins = test_.threads[t][i];
        return ins.op == LitOp::Ld && policy_.speculativeLoads() &&
               !s.st[t][i].performed && !s.st[t][i].bound &&
               !mayPerform(s, t, i);
    }

    void
    perform(ExecState &s, std::size_t t, std::size_t i)
    {
        const LitInstr &ins = test_.threads[t][i];
        InstrState &is = s.st[t][i];
        switch (ins.op) {
          case LitOp::Ld:
            if (is.bound && is.violated) {
                // Speculative-load squash: roll back this load and every
                // younger binding of the thread (cpu::Core::rollbackFrom),
                // then replay by reading the current value.
                ++res_.rollbacks;
                for (std::size_t k = i; k < s.st[t].size(); ++k) {
                    s.st[t][k].bound = false;
                    s.st[t][k].violated = false;
                }
            }
            is.value = is.bound ? is.bound_val : s.mem[ins.var];
            break;
          case LitOp::St:
            s.mem[ins.var] = ins.val;
            // The invalidation reaches every other processor's
            // speculatively-bound loads of this variable
            // (cpu::Core::onLineInvalidated) -- unless the
            // SkippedSpecSquash bug is seeded.
            if (!(mut_ && mut_->armed(ProtocolBug::SkippedSpecSquash))) {
                for (std::size_t ot = 0; ot < s.st.size(); ++ot) {
                    if (ot == t)
                        continue;
                    for (std::size_t oi = 0; oi < s.st[ot].size(); ++oi) {
                        const LitInstr &other = test_.threads[ot][oi];
                        InstrState &ois = s.st[ot][oi];
                        if (other.op == LitOp::Ld && ois.bound &&
                            !ois.performed && other.var == ins.var)
                            ois.violated = true;
                    }
                }
            }
            break;
          case LitOp::Mb:
          case LitOp::Wmb:
            break;
        }
        is.performed = true;
    }

    void
    explore(const ExecState &s)
    {
        if (!memo_.insert(s.key()).second)
            return;
        DBSIM_ASSERT(memo_.size() < kMaxStates,
                     "litmus state space unexpectedly large");

        bool terminal = true;
        for (std::size_t t = 0; t < test_.threads.size(); ++t) {
            for (std::size_t i = 0; i < test_.threads[t].size(); ++i) {
                if (s.st[t][i].performed)
                    continue;
                terminal = false;
                if (mayPerform(s, t, i)) {
                    ExecState next = s;
                    perform(next, t, i);
                    explore(next);
                }
                if (mayBind(s, t, i)) {
                    ExecState next = s;
                    InstrState &is = next.st[t][i];
                    is.bound = true;
                    is.violated = false;
                    is.bound_val = next.mem[test_.threads[t][i].var];
                    explore(next);
                }
            }
        }

        if (terminal) {
            LitmusOutcome out;
            for (std::size_t t = 0; t < test_.threads.size(); ++t)
                for (std::size_t i = 0; i < test_.threads[t].size(); ++i)
                    if (test_.threads[t][i].op == LitOp::Ld)
                        out.push_back(s.st[t][i].value);
            res_.outcomes.insert(out);
        }
    }

    static constexpr std::size_t kMaxStates = 2'000'000;

    const LitmusTest &test_;
    cpu::ConsistencyPolicy policy_;
    const ProtocolMutator *mut_;
    LitmusResult res_;
    std::set<std::string> memo_;
};

} // namespace

LitmusResult
runLitmus(const LitmusTest &test, const cpu::ConsistencyPolicy &policy,
          const ProtocolMutator *mutator)
{
    DBSIM_ASSERT(!test.threads.empty(), "litmus test has no threads");
    return LitmusExec(test, policy, mutator).run();
}

std::string
litmusOutcomeString(const LitmusOutcome &o)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < o.size(); ++i)
        os << (i ? "," : "") << o[i];
    return os.str();
}

namespace {

LitInstr ld(int var) { return {LitOp::Ld, var, 0}; }
LitInstr st(int var, int val) { return {LitOp::St, var, val}; }
LitInstr mb() { return {LitOp::Mb, 0, 0}; }
LitInstr wmb() { return {LitOp::Wmb, 0, 0}; }

} // namespace

LitmusTest
litmusMp(bool fenced)
{
    LitmusTest t;
    t.name = fenced ? "mp+fences" : "mp";
    t.num_vars = 2;
    if (fenced) {
        t.threads = {{st(0, 1), wmb(), st(1, 1)}, {ld(1), mb(), ld(0)}};
    } else {
        t.threads = {{st(0, 1), st(1, 1)}, {ld(1), ld(0)}};
    }
    return t;
}

LitmusTest
litmusSb(bool fenced)
{
    LitmusTest t;
    t.name = fenced ? "sb+fences" : "sb";
    t.num_vars = 2;
    if (fenced) {
        t.threads = {{st(0, 1), mb(), ld(1)}, {st(1, 1), mb(), ld(0)}};
    } else {
        t.threads = {{st(0, 1), ld(1)}, {st(1, 1), ld(0)}};
    }
    return t;
}

LitmusTest
litmusLb(bool fenced)
{
    LitmusTest t;
    t.name = fenced ? "lb+fences" : "lb";
    t.num_vars = 2;
    if (fenced) {
        t.threads = {{ld(0), mb(), st(1, 1)}, {ld(1), mb(), st(0, 1)}};
    } else {
        t.threads = {{ld(0), st(1, 1)}, {ld(1), st(0, 1)}};
    }
    return t;
}

LitmusTest
litmusIriw(bool fenced)
{
    LitmusTest t;
    t.name = fenced ? "iriw+fences" : "iriw";
    t.num_vars = 2;
    if (fenced) {
        t.threads = {{st(0, 1)},
                     {st(1, 1)},
                     {ld(0), mb(), ld(1)},
                     {ld(1), mb(), ld(0)}};
    } else {
        t.threads = {{st(0, 1)}, {st(1, 1)}, {ld(0), ld(1)}, {ld(1), ld(0)}};
    }
    return t;
}

} // namespace dbsim::verify
