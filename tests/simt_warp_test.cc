/**
 * @file
 * Unit and property tests for the warp lockstep simulator and coalescer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "simt/kernel.hh"
#include "simt/warp.hh"
#include "util/rng.hh"

namespace rhythm::simt {
namespace {

/// Builds a trace from (blockId, instructions) pairs.
ThreadTrace
makeTrace(std::initializer_list<std::pair<uint32_t, uint32_t>> blocks)
{
    ThreadTrace t;
    RecordingTracer rec(t);
    for (auto [id, insts] : blocks)
        rec.block(id, insts);
    return t;
}

std::vector<const ThreadTrace *>
ptrs(const std::vector<ThreadTrace> &traces)
{
    std::vector<const ThreadTrace *> p;
    for (const auto &t : traces)
        p.push_back(&t);
    return p;
}

TEST(Coalescer, SingleLaneSingleSegment)
{
    std::vector<uint64_t> addrs = {0};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Coalescer, FullWarpContiguousIsOneTransaction)
{
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(l * 4);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Coalescer, StridedLanesAreSeparateTransactions)
{
    // 4 KiB apart: the row-major buffer layout before transpose.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 4096);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 32u);
}

TEST(Coalescer, StraddlingAccessCountsBothSegments)
{
    std::vector<uint64_t> addrs = {126};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 2u);
}

TEST(Coalescer, DuplicateAddressesMerge)
{
    std::vector<uint64_t> addrs = {0, 0, 0, 64, 64};
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 1u);
}

TEST(Warp, IdenticalTracesExecuteOnce)
{
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 32; ++i)
        traces.push_back(makeTrace({{1, 100}, {2, 50}, {3, 25}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 175u);           // fetched once
    EXPECT_EQ(ws.laneInstructions, 32u * 175); // all lanes did the work
    EXPECT_EQ(ws.steps, 3u);
    EXPECT_DOUBLE_EQ(ws.simdEfficiency(32), 1.0);
}

TEST(Warp, FullyDivergentTracesSerialize)
{
    std::vector<ThreadTrace> traces;
    for (uint32_t i = 0; i < 8; ++i)
        traces.push_back(makeTrace({{100 + i, 10}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 80u); // each block fetched separately
    EXPECT_EQ(ws.laneInstructions, 80u);
    EXPECT_EQ(ws.steps, 8u);
    EXPECT_NEAR(ws.simdEfficiency(32), 1.0 / 32.0, 1e-12);
}

TEST(Warp, IfElseDivergenceReconverges)
{
    // Half the warp takes block 2, half takes block 3; all share 1 and 4.
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 32; ++i) {
        if (i % 2 == 0)
            traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
        else
            traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Blocks: 1 (once), 2 and 3 (serialized), 4 (once) = 10+20+20+10.
    EXPECT_EQ(ws.issueSlots, 60u);
    EXPECT_EQ(ws.steps, 4u);
    EXPECT_EQ(ws.laneInstructions, 32u * 40);
}

TEST(Warp, DifferentTripWeightsPredicate)
{
    // Same block id, different dynamic weights (e.g. different string
    // lengths): the group runs for max(weight) slots.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{1, 10}}));
    traces.push_back(makeTrace({{1, 30}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 30u);
    EXPECT_EQ(ws.laneInstructions, 40u);
    EXPECT_EQ(ws.steps, 1u);
}

TEST(Warp, LoopTripCountDivergence)
{
    // Lane A loops 3 times over block 5, lane B twice; they re-merge.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{4, 1}, {5, 10}, {5, 10}, {5, 10}, {6, 1}}));
    traces.push_back(makeTrace({{4, 1}, {5, 10}, {5, 10}, {6, 1}}));
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // 4 together, 5 ×2 together, 5 ×1 lane A alone, 6 together.
    EXPECT_EQ(ws.issueSlots, 1u + 30u + 1u);
    EXPECT_EQ(ws.steps, 5u);
}

TEST(Warp, NullLanesIgnored)
{
    ThreadTrace t = makeTrace({{1, 10}});
    std::vector<const ThreadTrace *> p = {&t, nullptr, &t, nullptr};
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 10u);
    EXPECT_EQ(ws.laneInstructions, 20u);
}

TEST(Warp, EmptyWarp)
{
    std::vector<const ThreadTrace *> p;
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 0u);
    EXPECT_EQ(ws.simdEfficiency(32), 0.0);
}

TEST(Warp, AllNullLaneWarp)
{
    // A fully padded tail warp (every lane idle) must cost nothing —
    // the shape the fusion packer eliminates.
    std::vector<const ThreadTrace *> p(32, nullptr);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws, WarpStats{});
    EXPECT_EQ(ws.simdEfficiency(32), 0.0);
}

TEST(Warp, SingleActiveLaneAmongNulls)
{
    ThreadTrace t = makeTrace({{1, 10}, {2, 20}});
    std::vector<const ThreadTrace *> p(32, nullptr);
    p[17] = &t;
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.issueSlots, 30u);
    EXPECT_EQ(ws.laneInstructions, 30u);
    EXPECT_EQ(ws.steps, 2u);
    EXPECT_EQ(ws.activeLaneSteps, 2u);
    EXPECT_NEAR(ws.simdEfficiency(32), 1.0 / 32.0, 1e-12);
}

TEST(Warp, InterleavedNullLanesMatchCompactWarp)
{
    // Null lanes are pure padding: the schedule (and all memory
    // traffic) must be identical whether the active lanes are packed
    // contiguously or interleaved with idle slots.
    std::vector<ThreadTrace> traces;
    traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
    traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
    traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
    std::vector<const ThreadTrace *> interleaved = {
        nullptr, &traces[0], nullptr, nullptr,
        &traces[1], nullptr, &traces[2], nullptr};
    std::vector<const ThreadTrace *> compact = {&traces[0], &traces[1],
                                                &traces[2]};
    EXPECT_EQ(simulateWarp(interleaved), simulateWarp(compact));
}

TEST(Warp, SharedBlockWithinWindowReconverges)
{
    // Mixed-type lane groups: two "type A" lanes reach merge block 9
    // immediately, two "type B" lanes detour through a short private
    // region first. The merge block is within the reconvergence window
    // of the B lanes, so A waits and block 9 issues once for all four.
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 2; ++i)
        traces.push_back(makeTrace({{7, 10}, {9, 50}}));
    for (int i = 0; i < 2; ++i) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(7, 10);
        for (uint32_t f = 0; f < 8; ++f)
            rec.block(100 + f, 1);
        rec.block(9, 50);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Block 7 together (10), 8 filler blocks (8), block 9 together (50).
    EXPECT_EQ(ws.issueSlots, 68u);
    EXPECT_EQ(ws.steps, 10u);
    // 4 lanes at 7, 2 per filler, 4 at 9.
    EXPECT_EQ(ws.activeLaneSteps, 4u + 8u * 2 + 4u);
}

TEST(Warp, SharedBlockBeyondWindowStaysDivergent)
{
    // Same shape, but the detour is longer than the reconvergence
    // window (512 trace entries): the scheduler no longer sees block 9
    // as a future merge point, so the type-A lanes run it alone and the
    // type-B lanes re-issue it later. This is the divergence cliff the
    // fusion similarity threshold guards against.
    const WarpModel model; // reconvergenceWindow = 512
    constexpr uint32_t kFiller = 600;
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 2; ++i)
        traces.push_back(makeTrace({{7, 10}, {9, 50}}));
    for (int i = 0; i < 2; ++i) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(7, 10);
        for (uint32_t f = 0; f < kFiller; ++f)
            rec.block(100 + f, 1);
        rec.block(9, 50);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p, model);
    // Block 7 together, fillers, then block 9 twice (A group, B group).
    EXPECT_EQ(ws.issueSlots, 10u + kFiller + 50u + 50u);
    EXPECT_EQ(ws.steps, 1u + kFiller + 2u);

    // Shrinking the window further must not resurrect the merge.
    WarpModel narrow = model;
    narrow.reconvergenceWindow = 4;
    WarpStats nw = simulateWarp(p, narrow);
    EXPECT_EQ(nw.issueSlots, ws.issueSlots);
}

/// Asserts mergeBlockSchedule() reproduces simulateWarp()'s scheduler
/// fields bit-for-bit while leaving every memory counter at zero.
void
expectScheduleMatches(std::span<const ThreadTrace *const> lanes,
                      const WarpModel &model = WarpModel{})
{
    const WarpStats full = simulateWarp(lanes, model);
    const WarpStats sched = mergeBlockSchedule(lanes, model);
    EXPECT_EQ(sched.issueSlots, full.issueSlots);
    EXPECT_EQ(sched.laneInstructions, full.laneInstructions);
    EXPECT_EQ(sched.steps, full.steps);
    EXPECT_EQ(sched.laneBlockExecs, full.laneBlockExecs);
    EXPECT_EQ(sched.activeLaneSteps, full.activeLaneSteps);
    EXPECT_EQ(sched.globalTransactions, 0u);
    EXPECT_EQ(sched.globalBytes, 0u);
    EXPECT_EQ(sched.sharedAccesses, 0u);
    EXPECT_EQ(sched.sharedReplaySlots, 0u);
    EXPECT_EQ(sched.constantAccesses, 0u);
}

TEST(Warp, MergeBlockScheduleMatchesSimulateWarp)
{
    // Control-flow-only traces: divergence, loops, nulls.
    {
        std::vector<ThreadTrace> traces;
        for (int i = 0; i < 32; ++i) {
            if (i % 2 == 0)
                traces.push_back(makeTrace({{1, 10}, {2, 20}, {4, 10}}));
            else
                traces.push_back(makeTrace({{1, 10}, {3, 20}, {4, 10}}));
        }
        auto p = ptrs(traces);
        expectScheduleMatches(p);
    }
    {
        ThreadTrace t = makeTrace({{4, 1}, {5, 10}, {5, 10}, {6, 1}});
        std::vector<const ThreadTrace *> p = {&t, nullptr, &t, nullptr};
        expectScheduleMatches(p);
    }
    // Traces with memory ops: the fields simulateWarp() derives from
    // them must not leak into the schedule.
    {
        std::vector<ThreadTrace> traces(8);
        for (int l = 0; l < 8; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 100);
            rec.load(static_cast<uint64_t>(l) * 4, 16, 4, 4);
            if (l % 2 == 0) {
                rec.block(2, 40 + static_cast<uint32_t>(l));
                rec.store(4096 + static_cast<uint64_t>(l) * 128, 8, 4, 4);
            }
            rec.block(3, 25);
            rec.load(static_cast<uint64_t>(l) * 4, 4, 4, 4,
                     MemSpace::Shared);
            rec.load(0x100, 1, 0, 4, MemSpace::Constant);
        }
        auto p = ptrs(traces);
        expectScheduleMatches(p);
        // And under a non-default model, since the window changes the
        // schedule itself.
        WarpModel narrow;
        narrow.reconvergenceWindow = 2;
        expectScheduleMatches(p, narrow);
    }
    {
        std::vector<const ThreadTrace *> p;
        expectScheduleMatches(p);
    }
}

TEST(Warp, CoalescedStoresAcrossLanes)
{
    // 32 lanes store 4 B each at consecutive addresses (transposed
    // layout): one transaction per element index.
    std::vector<ThreadTrace> traces(32);
    for (int l = 0; l < 32; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 10);
        // 16 elements, per-element stride = 128 (cohort row), lane offset 4.
        rec.store(static_cast<uint64_t>(l) * 4, 16, 128, 4);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.globalTransactions, 16u);
    EXPECT_EQ(ws.globalBytes, 32u * 16 * 4);
    EXPECT_DOUBLE_EQ(ws.coalescingEfficiency(), 1.0);
}

TEST(Warp, UncoalescedRowMajorStores)
{
    // Row-major: lane l writes its own contiguous 64 B buffer 4 KiB apart.
    std::vector<ThreadTrace> traces(32);
    for (int l = 0; l < 32; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 10);
        rec.store(static_cast<uint64_t>(l) * 4096, 16, 4, 4);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    // Each element index: 32 lanes in 32 distinct segments.
    EXPECT_EQ(ws.globalTransactions, 16u * 32);
    EXPECT_LT(ws.coalescingEfficiency(), 0.05);
}

TEST(Warp, SharedAndConstantProduceNoDramTraffic)
{
    std::vector<ThreadTrace> traces(4);
    for (int l = 0; l < 4; ++l) {
        RecordingTracer rec(traces[static_cast<size_t>(l)]);
        rec.block(1, 5);
        rec.load(0x100, 8, 4, 4, MemSpace::Shared);
        rec.load(0x200, 2, 0, 4, MemSpace::Constant);
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_EQ(ws.globalTransactions, 0u);
    EXPECT_EQ(ws.sharedAccesses, 4u * 8);
    EXPECT_EQ(ws.constantAccesses, 4u * 2);
}

TEST(Warp, BulkSampledPathMatchesExactForUniformPattern)
{
    // Large uniform op exercises the sampled fast path; a smaller version
    // with identical per-element geometry exercises the exact path.
    auto build = [](uint32_t count) {
        std::vector<ThreadTrace> traces(32);
        for (int l = 0; l < 32; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 1);
            rec.store(static_cast<uint64_t>(l) * 4, count, 128, 4);
        }
        return traces;
    };
    auto small = build(1024); // exact path
    auto big = build(8192);   // sampled path
    auto ps = ptrs(small);
    auto pb = ptrs(big);
    WarpStats s = simulateWarp(ps);
    WarpStats b = simulateWarp(pb);
    EXPECT_EQ(s.globalTransactions, 1024u);
    EXPECT_EQ(b.globalTransactions, 8192u);
}

// Property sweep: merged issue slots are bounded below by the longest
// lane and above by the sum of all lanes, for random trace populations.
class WarpMergeProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WarpMergeProperty, SlotsBoundedByMaxAndSum)
{
    rhythm::Rng rng(GetParam());
    std::vector<ThreadTrace> traces;
    uint64_t sum = 0, max_one = 0;
    const int lanes = static_cast<int>(rng.nextRange(1, 32));
    for (int l = 0; l < lanes; ++l) {
        ThreadTrace t;
        RecordingTracer rec(t);
        uint64_t insts = 0;
        const int blocks = static_cast<int>(rng.nextRange(1, 20));
        for (int b = 0; b < blocks; ++b) {
            const uint32_t id = static_cast<uint32_t>(rng.nextRange(1, 6));
            const uint32_t w = static_cast<uint32_t>(rng.nextRange(1, 50));
            rec.block(id, w);
            insts += w;
        }
        sum += insts;
        max_one = std::max(max_one, insts);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpStats ws = simulateWarp(p);
    EXPECT_GE(ws.issueSlots, max_one);
    EXPECT_LE(ws.issueSlots, sum);
    EXPECT_EQ(ws.laneInstructions, sum);
    // Every lane's block executions are consumed exactly once.
    uint64_t lane_blocks = 0;
    for (const auto &t : traces)
        lane_blocks += t.blocks.size();
    EXPECT_EQ(ws.laneBlockExecs, lane_blocks);
    EXPECT_GE(ws.activeLaneSteps, lane_blocks);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WarpMergeProperty,
                         ::testing::Range<uint64_t>(1, 33));

TEST(KernelProfile, FromTracesPacksWarps)
{
    std::vector<ThreadTrace> traces;
    for (int i = 0; i < 70; ++i)
        traces.push_back(makeTrace({{1, 10}}));
    auto p = ptrs(traces);
    KernelProfile kp = KernelProfile::fromTraces(p, WarpModel{}, "t");
    EXPECT_EQ(kp.threads, 70u);
    EXPECT_EQ(kp.warps, 3u); // 32 + 32 + 6
    EXPECT_EQ(kp.totals.issueSlots, 30u);
    EXPECT_EQ(kp.totals.laneInstructions, 700u);
}

TEST(KernelProfile, StreamingIsMemoryBoundAndCoalesced)
{
    WarpModel model;
    KernelProfile kp =
        KernelProfile::streaming(4096, 1 << 20, 64, model, "transpose");
    EXPECT_EQ(kp.warps, 128u);
    EXPECT_EQ(kp.totals.globalTransactions, (1u << 20) / 128);
    DeviceConfig cfg;
    KernelCost cost = computeKernelCost(kp, cfg);
    EXPECT_TRUE(cost.memoryBound);
    EXPECT_GT(cost.deviceSeconds, 0.0);
}

TEST(KernelCost, OccupancyCapScalesWithWarps)
{
    DeviceConfig cfg;
    WarpModel model;
    KernelProfile small = KernelProfile::streaming(256, 1 << 16, 64, model);
    KernelProfile big = KernelProfile::streaming(4096, 1 << 20, 64, model);
    KernelCost cs = computeKernelCost(small, cfg);
    KernelCost cb = computeKernelCost(big, cfg);
    EXPECT_LT(cs.maxShare, cb.maxShare);
    EXPECT_DOUBLE_EQ(cb.maxShare, 1.0);
    EXPECT_NEAR(cs.maxShare, 8.0 / cfg.saturatingWarps(), 1e-12);
}

TEST(KernelCost, ComputeBoundKernel)
{
    WarpModel model;
    // Many instructions, almost no memory.
    KernelProfile kp = KernelProfile::streaming(4096, 128, 100000, model);
    DeviceConfig cfg;
    KernelCost cost = computeKernelCost(kp, cfg);
    EXPECT_FALSE(cost.memoryBound);
    const double expected = static_cast<double>(kp.totals.issueSlots) *
                            cfg.instructionExpansion /
                            cfg.issueSlotsPerSecond();
    EXPECT_NEAR(cost.deviceSeconds, expected, 1e-15);
    EXPECT_EQ(cost.memoryBytes, kp.totals.movedBytes());
}

TEST(SharedBanks, ConflictFreeStrideOne)
{
    // 32 lanes hit 32 consecutive 4-byte words: one word per bank.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 4);
    EXPECT_EQ(sharedBankReplays(addrs), 0u);
}

TEST(SharedBanks, BroadcastIsFree)
{
    std::vector<uint64_t> addrs(32, 128);
    EXPECT_EQ(sharedBankReplays(addrs), 0u);
}

TEST(SharedBanks, StrideThirtyTwoIsWorstCase)
{
    // All lanes hit bank 0 with distinct addresses: 31 replays.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 31u);
}

TEST(SharedBanks, TwoWayConflict)
{
    // Stride 2 words: lanes l and l+16 share a bank: 1 replay.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 8);
    EXPECT_EQ(sharedBankReplays(addrs), 1u);
}

TEST(SharedBanks, SixteenWayConflict)
{
    // Stride 16 words: lanes collapse onto banks 0 and 16: 15 replays.
    std::vector<uint64_t> addrs;
    for (int l = 0; l < 32; ++l)
        addrs.push_back(static_cast<uint64_t>(l) * 64);
    EXPECT_EQ(sharedBankReplays(addrs), 15u);
}

TEST(SharedBanks, ReplaysFlowIntoWarpStatsAndCost)
{
    // A warp whose shared accesses all collide must cost more compute
    // time than a conflict-free one.
    auto build = [](uint32_t stride) {
        std::vector<ThreadTrace> traces(32);
        for (int l = 0; l < 32; ++l) {
            RecordingTracer rec(traces[static_cast<size_t>(l)]);
            rec.block(1, 10);
            rec.load(static_cast<uint64_t>(l) * stride, 8, 4, 4,
                     MemSpace::Shared);
        }
        std::vector<const ThreadTrace *> p;
        for (auto &t : traces)
            p.push_back(&t);
        return KernelProfile::fromTraces(p, WarpModel{}, "t");
    };
    KernelProfile clean = build(4);     // conflict free
    KernelProfile dirty = build(128);   // 32-way conflicts
    EXPECT_EQ(clean.totals.sharedReplaySlots, 0u);
    EXPECT_EQ(dirty.totals.sharedReplaySlots, 8u * 31);
    DeviceConfig cfg;
    EXPECT_GT(computeKernelCost(dirty, cfg).deviceSeconds,
              computeKernelCost(clean, cfg).deviceSeconds);
}

// Brute-force oracle for one aligned group memory op: coalesces every
// element index on its own (the width is the last active Global lane's),
// except that an all-Global group of equal count, stride and width
// above 4096 elements takes the long-access extrapolation: a
// 128-element window scaled to the count, rounded up.
uint64_t
oracleGroupTransactions(const std::vector<MemOp> &group,
                        uint32_t segment_bytes)
{
    uint32_t max_count = 0;
    bool uniform = group.size() > 1;
    for (const MemOp &op : group) {
        if (op.space == MemSpace::Global)
            max_count = std::max(max_count, op.count);
        if (op.space != MemSpace::Global || op.count != group[0].count ||
            op.stride != group[0].stride || op.width != group[0].width)
            uniform = false;
    }
    auto element = [&](uint32_t i) -> uint64_t {
        std::vector<uint64_t> addrs;
        uint16_t width = 4;
        for (const MemOp &op : group) {
            if (op.space == MemSpace::Global && i < op.count) {
                addrs.push_back(op.addr + static_cast<uint64_t>(i) * op.stride);
                width = op.width;
            }
        }
        return addrs.empty()
                   ? 0
                   : coalesceTransactions(addrs, width, segment_bytes);
    };
    uint64_t total = 0;
    if (uniform && max_count > 4096) {
        for (uint32_t i = 0; i < 128; ++i)
            total += element(i);
        return (total * max_count + 127) / 128;
    }
    for (uint32_t i = 0; i < max_count; ++i)
        total += element(i);
    return total;
}

// Property sweep: simulateWarp's transaction count equals the
// per-element oracle on random single-block warps. The seed picks the
// shared stride and width (every pair of the lists below recurs) and
// the warp and segment sizes; the rest is drawn: lane layout, per-lane
// counts (equal, a few distinct values or independent, 1 to 5000),
// Constant lanes mixed into a Global op, and ops whose lanes differ in
// stride or width.
class CoalescerOracleProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CoalescerOracleProperty, MatchesPerElementOracle)
{
    static constexpr uint32_t kStrides[] = {0, 1, 3, 4, 100, 128, 16384};
    static constexpr uint16_t kWidths[] = {1, 4, 8, 200};
    const uint64_t seed = GetParam();
    rhythm::Rng rng(seed);
    WarpModel model;
    model.warpWidth = (seed / 28) % 2 ? 64 : 32;
    model.segmentBytes = (seed / 56) % 2 ? 64 : 128;
    const uint32_t stride = kStrides[seed % 7];
    const uint16_t width = kWidths[(seed / 7) % 4];

    const size_t lanes = static_cast<size_t>(
        rng.nextRange(1, model.warpWidth));
    auto draw_count = [&]() -> uint32_t {
        return static_cast<uint32_t>(rng.nextBool(0.5)
                                         ? rng.nextRange(1, 300)
                                         : rng.nextRange(1, 5000));
    };

    // groups[j][l]: lane l's op at op index j of the block.
    std::vector<std::vector<MemOp>> groups(
        static_cast<size_t>(rng.nextRange(1, 3)));
    for (auto &group : groups) {
        const bool mixed_shape = rng.nextBool(0.25);
        const bool with_constant = rng.nextBool(0.2);
        const int count_mode = static_cast<int>(rng.nextRange(0, 2));
        uint32_t common_count = draw_count();
        if (count_mode == 0 && rng.nextBool(0.3))
            common_count = static_cast<uint32_t>(rng.nextRange(4097, 5000));
        uint32_t few_counts[3] = {draw_count(), draw_count(), draw_count()};
        static constexpr uint64_t kLaneGaps[] = {4, 8, 200, 4096};
        const uint64_t lane_gap = kLaneGaps[rng.nextBounded(4)];
        const bool random_bases = rng.nextBool(0.3);
        const uint64_t base = rng.nextBounded(1 << 20);
        for (size_t l = 0; l < lanes; ++l) {
            MemOp op;
            op.addr = random_bases ? rng.nextBounded(1 << 24)
                                   : base + l * lane_gap;
            op.stride = stride;
            op.width = width;
            if (mixed_shape && rng.nextBool(0.5)) {
                op.stride = kStrides[rng.nextBounded(7)];
                op.width = kWidths[rng.nextBounded(4)];
            }
            op.count = count_mode == 0   ? common_count
                       : count_mode == 1 ? few_counts[rng.nextBounded(3)]
                                         : draw_count();
            if (with_constant && rng.nextBool(0.3))
                op.space = MemSpace::Constant;
            group.push_back(op);
        }
    }

    std::vector<ThreadTrace> traces(lanes);
    uint64_t expected = 0;
    for (size_t l = 0; l < lanes; ++l) {
        RecordingTracer rec(traces[l]);
        rec.block(1, 10);
        for (const auto &group : groups)
            rec.memory(group[l]);
    }
    for (const auto &group : groups)
        expected += oracleGroupTransactions(group, model.segmentBytes);
    auto p = ptrs(traces);
    EXPECT_EQ(simulateWarp(p, model).globalTransactions, expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CoalescerOracleProperty,
                         ::testing::Range<uint64_t>(0, 112));

TEST(Coalescer, AccessesNearTheTopOfTheAddressSpaceMatchOracle)
{
    // Lane 0's element 50 straddles 2^64 and wraps, which breaks the
    // whole-segment shift the periodic count relies on (elements 32 to
    // 63 would otherwise repeat 0 to 31); the count must still equal
    // the oracle's.
    std::vector<ThreadTrace> traces(8);
    std::vector<MemOp> group;
    for (uint64_t l = 0; l < 8; ++l) {
        MemOp op;
        op.addr = ~uint64_t{0} - 5000 + l * 8;
        op.count = 100 + static_cast<uint32_t>(l);
        op.stride = 100;
        op.width = 8;
        group.push_back(op);
        RecordingTracer rec(traces[l]);
        rec.block(1, 10);
        rec.memory(op);
    }
    auto p = ptrs(traces);
    EXPECT_EQ(simulateWarp(p).globalTransactions,
              oracleGroupTransactions(group, 128));
}

// Regression: the segment scratch buffer used to be a fixed
// std::array<uint64_t, 128> that silently dropped segments beyond its
// capacity, under-counting transactions for wide bulk accesses. The
// count must be exact for any number of distinct segments.
TEST(Coalescer, MoreThan128DistinctSegmentsAreAllCounted)
{
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 256; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 256u);
}

TEST(Coalescer, StraddlingAccessesBeyondCapSpillExactly)
{
    // 100 accesses, each straddling a 128 B boundary: 200 distinct
    // segments, beyond the old 128-entry cap.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 100; ++i)
        addrs.push_back(i * 256 + 126);
    EXPECT_EQ(coalesceTransactions(addrs, 4, 128), 200u);
}

TEST(Coalescer, WideWarpModelExceedsOldSegmentCap)
{
    // A 256-wide warp model with 200 lanes each touching its own
    // segment: one warp-level access must produce one transaction per
    // lane. With the old 128-entry scratch array the access-level
    // count clamped at 128 (and the 64-entry lane buffers clamped
    // earlier still).
    std::vector<ThreadTrace> traces;
    for (uint64_t l = 0; l < 200; ++l) {
        ThreadTrace t;
        RecordingTracer rec(t);
        rec.block(1, 10);
        rec.load(l * 128, 1, 0, 4);
        traces.push_back(std::move(t));
    }
    auto p = ptrs(traces);
    WarpModel model;
    model.warpWidth = 256;
    WarpStats ws = simulateWarp(p, model);
    EXPECT_EQ(ws.globalTransactions, 200u);
}

// Regression: sharedBankReplays sorted same-bank addresses into a fixed
// std::array<uint64_t, 64>, silently dropping distinct addresses beyond
// 64 and under-counting replays.
TEST(SharedBanks, MoreThan64DistinctSameBankAddressesAllReplay)
{
    // 70 distinct addresses, all in bank 0 (addr/4 % 32 == 0): replays
    // are distinct-count minus one. The old cap reported 63.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 70; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 69u);
}

TEST(SharedBanks, DuplicatesBeyondCapStillBroadcast)
{
    // 80 same-bank accesses but only 66 distinct addresses: broadcast
    // dedup must survive the spill path.
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 66; ++i)
        addrs.push_back(i * 128);
    for (uint64_t i = 0; i < 14; ++i)
        addrs.push_back(i * 128);
    EXPECT_EQ(sharedBankReplays(addrs), 65u);
}

} // namespace
} // namespace rhythm::simt
