/**
 * @file
 * Unit tests for the OS scheduler model.
 */

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "sim/scheduler.hpp"
#include "trace/source.hpp"

namespace dbsim::sim {
namespace {

using cpu::ProcessContext;
using cpu::ProcState;

struct SchedFixture : ::testing::Test
{
    SchedFixture() : sched(2)
    {
        for (ProcId i = 0; i < 4; ++i) {
            srcs.emplace_back(std::vector<trace::TraceRecord>{});
            procs.emplace_back(
                std::make_unique<ProcessContext>(i, &srcs.back()));
        }
    }

    Scheduler sched;
    std::deque<trace::VectorSource> srcs;
    std::vector<std::unique_ptr<ProcessContext>> procs;
};

TEST_F(SchedFixture, RoundRobinWithinCpu)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 0);
    EXPECT_EQ(sched.pickNext(0, 0), procs[0].get());
    EXPECT_EQ(sched.pickNext(0, 0), procs[1].get());
    EXPECT_EQ(sched.pickNext(0, 0), nullptr);
    sched.makeReady(procs[0].get());
    sched.makeReady(procs[1].get());
    EXPECT_EQ(sched.pickNext(0, 0), procs[0].get());
}

TEST_F(SchedFixture, AffinityRespected)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 1);
    EXPECT_EQ(sched.pickNext(1, 0), procs[1].get());
    EXPECT_EQ(sched.pickNext(1, 0), nullptr);
    EXPECT_EQ(sched.pickNext(0, 0), procs[0].get());
}

TEST_F(SchedFixture, BlockedUntilWakeTime)
{
    sched.addProcess(procs[0].get(), 0);
    auto *p = sched.pickNext(0, 0);
    sched.block(p, 100);
    EXPECT_EQ(p->state, ProcState::Blocked);
    EXPECT_EQ(sched.pickNext(0, 50), nullptr);
    EXPECT_EQ(sched.nextWake(0), 100u);
    EXPECT_EQ(sched.pickNext(0, 100), p);
    // pickNext wakes and dequeues; the core's switchTo marks Running.
    EXPECT_EQ(p->state, ProcState::Ready);
}

TEST_F(SchedFixture, WakeOrderPreservesQueue)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 0);
    auto *a = sched.pickNext(0, 0);
    sched.block(a, 10);
    auto *b = sched.pickNext(0, 0);
    sched.block(b, 5);
    // Both wake by 20; whoever was blocked is requeued.
    auto *first = sched.pickNext(0, 20);
    auto *second = sched.pickNext(0, 20);
    EXPECT_TRUE(first && second);
    EXPECT_NE(first, second);
}

TEST_F(SchedFixture, FinishRemovesFromScheduling)
{
    sched.addProcess(procs[0].get(), 0);
    auto *p = sched.pickNext(0, 0);
    sched.finish(p);
    EXPECT_EQ(p->state, ProcState::Done);
    EXPECT_FALSE(sched.anyIncomplete());
    EXPECT_EQ(sched.pickNext(0, 100), nullptr);
}

TEST_F(SchedFixture, AnyIncompleteAcrossCpus)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 1);
    EXPECT_TRUE(sched.anyIncomplete());
    sched.finish(procs[0].get());
    EXPECT_TRUE(sched.anyIncomplete());
    sched.finish(procs[0].get()); // finishing twice counts once
    EXPECT_TRUE(sched.anyIncomplete());
    sched.finish(procs[1].get());
    EXPECT_FALSE(sched.anyIncomplete());
}

TEST_F(SchedFixture, RecountIncompleteFollowsRestoredStates)
{
    // A restore writes process states behind the scheduler's back.
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 1);
    procs[0]->state = ProcState::Done;
    procs[1]->state = ProcState::Done;
    EXPECT_TRUE(sched.anyIncomplete());
    sched.recountIncomplete();
    EXPECT_FALSE(sched.anyIncomplete());
    procs[1]->state = ProcState::Blocked;
    sched.recountIncomplete();
    EXPECT_TRUE(sched.anyIncomplete());
}

TEST_F(SchedFixture, NextWakeNeverWhenNoneBlocked)
{
    sched.addProcess(procs[0].get(), 0);
    EXPECT_EQ(sched.nextWake(0), kNever);
}

TEST_F(SchedFixture, HasReadyTracksQueue)
{
    EXPECT_FALSE(sched.hasReady(0));
    sched.addProcess(procs[0].get(), 0);
    EXPECT_TRUE(sched.hasReady(0));
    (void)sched.pickNext(0, 0);
    EXPECT_FALSE(sched.hasReady(0));
}

TEST_F(SchedFixture, UnregisteredProcessIsCaught)
{
    // procs[3] was never addProcess()ed: makeReady / block used to index
    // affinity_ out of bounds (or read a stale zero).  Now they panic.
    sched.addProcess(procs[0].get(), 0);
    PanicThrowGuard guard;
    EXPECT_THROW(sched.makeReady(procs[3].get()), SimInvariantError);
    EXPECT_THROW(sched.block(procs[3].get(), 100), SimInvariantError);
}

TEST_F(SchedFixture, NextWakeIsEarliestAmongBlocked)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 0);
    sched.addProcess(procs[2].get(), 0);
    auto *a = sched.pickNext(0, 0);
    auto *b = sched.pickNext(0, 0);
    auto *c = sched.pickNext(0, 0);
    sched.block(a, 300);
    sched.block(b, 100);
    sched.block(c, 200);
    EXPECT_EQ(sched.nextWake(0), 100u);
    EXPECT_EQ(sched.pickNext(0, 100), b);
    EXPECT_EQ(sched.nextWake(0), 200u);
    EXPECT_EQ(sched.pickNext(0, 250), c);
    EXPECT_EQ(sched.nextWake(0), 300u);
    EXPECT_EQ(sched.pickNext(0, 300), a);
    EXPECT_EQ(sched.nextWake(0), kNever);
}

TEST_F(SchedFixture, SimultaneousWakesPreserveBlockOrder)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 0);
    sched.addProcess(procs[2].get(), 0);
    auto *a = sched.pickNext(0, 0);
    auto *b = sched.pickNext(0, 0);
    auto *c = sched.pickNext(0, 0);
    // All wake at the same cycle; the ready queue must reflect the
    // order in which they blocked (heap ties broken by sequence).
    sched.block(b, 50);
    sched.block(c, 50);
    sched.block(a, 50);
    EXPECT_EQ(sched.pickNext(0, 50), b);
    EXPECT_EQ(sched.pickNext(0, 50), c);
    EXPECT_EQ(sched.pickNext(0, 50), a);
}

TEST_F(SchedFixture, BlockedCountTracksHeap)
{
    sched.addProcess(procs[0].get(), 0);
    sched.addProcess(procs[1].get(), 0);
    auto *a = sched.pickNext(0, 0);
    auto *b = sched.pickNext(0, 0);
    sched.block(a, 10);
    sched.block(b, 20);
    EXPECT_EQ(sched.blockedCount(0), 2u);
    (void)sched.pickNext(0, 15);
    EXPECT_EQ(sched.blockedCount(0), 1u);
    (void)sched.pickNext(0, 20);
    EXPECT_EQ(sched.blockedCount(0), 0u);
}

} // namespace
} // namespace dbsim::sim
