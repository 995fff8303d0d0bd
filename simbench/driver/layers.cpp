#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <iomanip>
#include <map>
#include <stdexcept>

#include "coherence/directory.hpp"
#include "cpu/ooo_core.hpp"
#include "cpu/process.hpp"
#include "memory/page_map.hpp"
#include "sim/node.hpp"

namespace simbench {

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::SimRun: return "sim.run";
      case Layer::WorkloadNext: return "workload.next";
      case Layer::CpuTick: return "cpu.tick";
      case Layer::CpuNextEvent: return "cpu.next_event";
      case Layer::CpuAccountStall: return "cpu.account_stall";
      case Layer::MemoryData: return "memory.data";
      case Layer::MemoryFetch: return "memory.fetch";
      case Layer::MemoryFlush: return "memory.flush";
      case Layer::CoherenceData: return "coherence.data";
      case Layer::kCount: break;
    }
    return "?";
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    const std::uint64_t t0 = recs_.empty() ? 0 : recs_.front().start;
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
       << dropped_ << "},\"traceEvents\":[\n"
       << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
        const Rec &r = recs_[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << layerName(r.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << static_cast<double>(r.start - t0) / 1000.0
           << ",\"dur\":" << static_cast<double>(r.dur) / 1000.0
           << ",\"args\":{\"id\":" << i << ",\"parent\":";
        if (r.parent == kNone)
            os << "null";
        else
            os << r.parent;
        os << "}}";
    }
    os << "\n]}\n";
}

Windows
captureWindows(const Machine &m, std::uint32_t procs, std::uint64_t per_proc)
{
    Windows w(procs);
    for (ProcId p = 0; p < procs; ++p) {
        std::unique_ptr<trace::TraceSource> src = m.makeProcess(p);
        trace::TraceRecord rec;
        w[p].reserve(per_proc);
        while (w[p].size() < per_proc && src->next(rec))
            w[p].push_back(rec);
    }
    return w;
}

namespace {

/**
 * The environment the cpu driver gives its core: the simulated lock
 * table (as in sim::System) and a record of the scheduling request the
 * last tick made.  The driver serves every request by moving to the next
 * process round-robin; blocking-call latencies are not modelled.
 */
class DriverEnv : public cpu::CoreEnvIf
{
  public:
    enum class Request : std::uint8_t { None, Switch, Done };

    bool
    lockIsFree(Addr addr, ProcId proc) const override
    {
        auto it = holder_.find(addr);
        return it == holder_.end() || it->second == proc;
    }

    bool
    lockTryAcquire(Addr addr, ProcId proc) override
    {
        auto [it, inserted] = holder_.emplace(addr, proc);
        return inserted || it->second == proc;
    }

    void
    lockRelease(Addr addr, ProcId proc) override
    {
        auto it = holder_.find(addr);
        if (it != holder_.end() && it->second == proc)
            holder_.erase(it);
    }

    void onSyscallBlock(ProcId, Cycles) override { request = Request::Switch; }

    void
    onLockYield(ProcId) override
    {
        if (request == Request::None)
            request = Request::Switch;
    }

    void onProcessDone(ProcId) override { request = Request::Done; }

    /**
     * A window can end inside a critical section; free the locks of a
     * finished process so the others do not spin on them forever.
     */
    void
    releaseAll(ProcId proc)
    {
        std::erase_if(holder_,
                      [proc](const auto &kv) { return kv.second == proc; });
    }

    Request request = Request::None;

  private:
    std::map<Addr, ProcId> holder_;
};

/** Nodes, page map and fabric of a machine with @p nodes nodes. */
struct NodeSet
{
    NodeSet(const core::SimConfig &cfg, std::uint32_t nodes)
        : page_map(cfg.system.node.page_bytes, cfg.system.page_bins, nodes),
          fabric(nodes, cfg.system.fabric, cfg.system.mesh)
    {
        for (std::uint32_t i = 0; i < nodes; ++i) {
            node.push_back(std::make_unique<sim::Node>(i, cfg.system.node,
                                                       &page_map, &fabric));
            fabric.attachSite(i, node.back().get());
        }
    }

    mem::PageMap page_map;
    coher::CoherenceFabric fabric;
    std::vector<std::unique_ptr<sim::Node>> node;
};

/** No instruction retired for this long: the driver is stuck. */
constexpr Cycles kStuckCycles = 10'000'000;

} // namespace

CpuDriverResult
runCpuDriver(const core::SimConfig &cfg, const Windows &w, SpanLog &log)
{
    NodeSet nodes(cfg, 1);
    TimedMem mem(*nodes.node[0], log, Layer::MemoryData);
    DriverEnv env;
    cpu::Core core(0, cfg.system.core, &mem, &env);
    nodes.node[0]->attachCore(&core);

    // The processes sim::System pins to node 0.
    std::vector<std::unique_ptr<trace::VectorSource>> sources;
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs;
    std::deque<cpu::ProcessContext *> ready;
    for (ProcId p = 0; p < w.size(); p += cfg.system.num_nodes) {
        sources.push_back(std::make_unique<trace::VectorSource>(w[p]));
        procs.push_back(std::make_unique<cpu::ProcessContext>(
            p, sources.back().get()));
        ready.push_back(procs.back().get());
    }

    CpuDriverResult out;
    Cycles now = 0;
    Cycles last_progress = 0;
    std::uint64_t last_retired = 0;
    bool ever_ran = false;
    while (core.current() || !ready.empty()) {
        if (!core.current()) {
            core.switchTo(ready.front(), now, ever_ran);
            ready.pop_front();
            ever_ran = true;
        }
        const std::uint64_t mem_before = mem.ns;
        {
            Span span(log, Layer::CpuTick);
            core.tick(now);
            out.core_ns += span.close();
        }
        ++out.ticks;
        out.memory_ns += mem.ns - mem_before;

        if (env.request != DriverEnv::Request::None) {
            cpu::ProcessContext *p = core.current();
            core.detachCurrent();
            if (env.request == DriverEnv::Request::Switch)
                ready.push_back(p);
            else
                env.releaseAll(p->id());
            env.request = DriverEnv::Request::None;
        }

        Cycles next = now + 1;
        if (core.current()) {
            {
                Span span(log, Layer::CpuNextEvent);
                next = core.nextEvent(now);
                out.core_ns += span.close();
            }
            next = next == kNever ? now + 1 : std::max(next, now + 1);
            if (next > now + 1) {
                Span span(log, Layer::CpuAccountStall);
                core.accountStall(now + 1, next);
                out.core_ns += span.close();
                out.skipped_cycles += next - now - 1;
            }
        }
        now = next;

        const std::uint64_t retired = core.stats().instructions;
        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now;
        } else if (now - last_progress > kStuckCycles) {
            throw std::runtime_error("cpu driver: no instruction retired in " +
                                     std::to_string(kStuckCycles) +
                                     " cycles");
        }
    }

    out.instructions = core.stats().instructions;
    out.cycles = now;
    out.next_event = log.total(Layer::CpuNextEvent);
    out.fetch = mem.fetch;
    out.data_by_class = mem.by_class;
    return out;
}

CoherenceDriverResult
runCoherenceDriver(const core::SimConfig &cfg, const Windows &w,
                   SpanLog &log)
{
    const std::uint32_t n = cfg.system.num_nodes;
    NodeSet nodes(cfg, n);
    std::vector<std::unique_ptr<TimedMem>> mem;
    for (std::uint32_t i = 0; i < n; ++i) {
        mem.push_back(std::make_unique<TimedMem>(*nodes.node[i], log,
                                                 Layer::CoherenceData));
    }

    // Each node serves its processes' data references round-robin.
    struct Cursor
    {
        const std::vector<trace::TraceRecord> *recs;
        std::size_t pos;
    };
    auto skipToReference = [](Cursor &c) {
        while (c.pos < c.recs->size()) {
            const trace::OpClass op = (*c.recs)[c.pos].op;
            if (trace::isLoad(op) || trace::isStore(op))
                return true;
            ++c.pos;
        }
        return false;
    };
    std::vector<std::vector<Cursor>> queue(n);
    for (ProcId p = 0; p < w.size(); ++p)
        queue[p % n].push_back(Cursor{&w[p], 0});
    std::vector<std::size_t> turn(n, 0);
    std::vector<Cycles> wait(n, 0);

    CoherenceDriverResult out;
    Cycles now = 0;
    for (;;) {
        bool pending = false;
        bool issued = false;
        Cycles wake = kNever;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::vector<Cursor> &q = queue[i];
            // Drop exhausted processes; stop when the node has none.
            while (!q.empty() && !skipToReference(q[turn[i] % q.size()]))
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(
                                        turn[i] % q.size()));
            if (q.empty())
                continue;
            pending = true;
            if (wait[i] > now) {
                wake = std::min(wake, wait[i]);
                continue;
            }
            Cursor &c = q[turn[i] % q.size()];
            const trace::TraceRecord &rec = (*c.recs)[c.pos];
            Cycles retry = kNever;
            if (mem[i]->dataAccess(rec.vaddr, rec.pc,
                                   trace::isStore(rec.op), now, false,
                                   &retry)) {
                ++c.pos;
                ++turn[i];
                ++out.references;
                issued = true;
            } else {
                wait[i] = retry != kNever && retry > now ? retry : now + 1;
                wake = std::min(wake, wait[i]);
            }
        }
        if (!pending)
            break;
        // Advance a cycle while some node issues; otherwise jump to the
        // first cycle a refused node can retry.
        now = issued || wake == kNever ? now + 1 : std::max(wake, now + 1);
    }
    out.cycles = now;
    for (const auto &m : mem) {
        for (std::size_t k = 0; k < out.data_by_class.size(); ++k) {
            out.data_by_class[k].count += m->by_class[k].count;
            out.data_by_class[k].ns += m->by_class[k].ns;
        }
    }
    return out;
}

} // namespace simbench
