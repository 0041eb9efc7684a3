#include "simt/warp.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace rhythm::simt {
namespace {

/**
 * Fixed-capacity buffer that spills to the heap instead of dropping
 * values. The inline array covers the hot path (a warp's lanes, narrow
 * accesses) allocation-free; wide accesses that straddle many segments
 * overflow into the vector and are merged before use, so counts stay
 * exact instead of silently truncating.
 */
template <typename T, size_t N>
class SpillBuf
{
  public:
    void push(T v)
    {
        if (n_ < N)
            inline_[n_++] = v;
        else
            spill_.push_back(v);
    }

    /** Contiguous view of all values (merges the spill if engaged). */
    std::span<T> values()
    {
        if (spill_.empty())
            return std::span<T>(inline_.data(), n_);
        spill_.insert(spill_.end(), inline_.begin(), inline_.begin() + n_);
        n_ = 0;
        return std::span<T>(spill_);
    }

  private:
    std::array<T, N> inline_;
    std::vector<T> spill_;
    size_t n_ = 0;
};

} // namespace

void
WarpStats::merge(const WarpStats &other)
{
    issueSlots += other.issueSlots;
    laneInstructions += other.laneInstructions;
    steps += other.steps;
    laneBlockExecs += other.laneBlockExecs;
    activeLaneSteps += other.activeLaneSteps;
    globalTransactions += other.globalTransactions;
    globalBytes += other.globalBytes;
    sharedAccesses += other.sharedAccesses;
    sharedReplaySlots += other.sharedReplaySlots;
    constantAccesses += other.constantAccesses;
}

double
WarpStats::simdEfficiency(int warp_width) const
{
    if (issueSlots == 0)
        return 0.0;
    return static_cast<double>(laneInstructions) /
           (static_cast<double>(issueSlots) * warp_width);
}

uint64_t
WarpStats::movedBytes(uint32_t segment_bytes) const
{
    return globalTransactions * segment_bytes;
}

double
WarpStats::coalescingEfficiency(uint32_t segment_bytes) const
{
    const uint64_t moved = movedBytes(segment_bytes);
    if (moved == 0)
        return 0.0;
    return static_cast<double>(globalBytes) / static_cast<double>(moved);
}

uint32_t
coalesceTransactions(std::span<const uint64_t> addrs, uint16_t width,
                     uint32_t segment_bytes)
{
    RHYTHM_ASSERT(segment_bytes > 0);
    // Collect the segment indices touched by every lane's access (an
    // access can straddle a segment boundary), then count distinct
    // ones. Wide accesses can touch far more segments than lanes, so
    // the collection spills to the heap instead of capping the count.
    SpillBuf<uint64_t, 128> segments;
    for (uint64_t addr : addrs) {
        const uint64_t first = addr / segment_bytes;
        const uint64_t last = (addr + width - 1) / segment_bytes;
        for (uint64_t seg = first; seg <= last; ++seg)
            segments.push(seg);
    }
    const std::span<uint64_t> vals = segments.values();
    std::sort(vals.begin(), vals.end());
    const auto end = std::unique(vals.begin(), vals.end());
    return static_cast<uint32_t>(end - vals.begin());
}

uint32_t
sharedBankReplays(std::span<const uint64_t> addrs)
{
    // Count distinct addresses per bank; replays = worst bank - 1.
    // Warps wider than 64 lanes spill rather than dropping addresses.
    SpillBuf<uint64_t, 64> sorted;
    for (uint64_t addr : addrs)
        sorted.push(addr);
    const std::span<uint64_t> vals = sorted.values();
    std::sort(vals.begin(), vals.end());
    const auto end = std::unique(vals.begin(), vals.end());

    std::array<uint32_t, 32> bank_counts{};
    uint32_t worst = 1;
    for (auto it = vals.begin(); it != end; ++it) {
        const uint32_t bank = static_cast<uint32_t>((*it / 4) % 32);
        worst = std::max(worst, ++bank_counts[bank]);
    }
    return worst - 1;
}

namespace {

/** Period of a pattern that never repeats (see elementPeriod()). */
constexpr uint32_t kNoPeriod = std::numeric_limits<uint32_t>::max();

/**
 * Element period of the segment pattern of the Global ops @p global.
 * When every op shares one stride s and width, advancing element i by
 * P = S / gcd(S, s) (S = @p segment_bytes) moves every lane by
 * lcm(S, s) bytes, the same whole number of segments, so the
 * distinct-segment count repeats with period P while the set of active
 * lanes is fixed (s = 0 gives P = 1). Returns 0 when the ops differ in
 * stride or width (no common period), and kNoPeriod when an access
 * could wrap around 2^64, where the shift argument fails.
 */
uint32_t
elementPeriod(std::span<const MemOp *const> global, uint32_t segment_bytes)
{
    const MemOp &first = *global[0];
    bool wraps = false;
    for (const MemOp *op : global) {
        if (op->stride != first.stride || op->width != first.width)
            return 0;
        // count * stride + width stays below 2^64 for 32-bit operands.
        const uint64_t reach =
            static_cast<uint64_t>(op->count) * op->stride + op->width;
        wraps |= op->addr > std::numeric_limits<uint64_t>::max() - reach;
    }
    if (wraps)
        return kNoPeriod;
    return segment_bytes / std::gcd(segment_bytes, first.stride);
}

/**
 * Sums coalesceTransactions() over elements [begin, begin + len) of
 * @p lanes, all active over the whole range and sharing the element
 * period @p period: evaluates min(period, len) elements and multiplies
 * the period out, adding the prefix of the remainder.
 */
uint64_t
periodicTransactions(std::span<const MemOp *const> lanes, uint32_t begin,
                     uint32_t len, uint32_t period, uint32_t segment_bytes,
                     uint64_t *addrs)
{
    const uint32_t evals = std::min(period, len);
    const uint32_t rem = len % period;
    uint64_t period_sum = 0;
    uint64_t rem_sum = 0;
    for (uint32_t j = 0; j < evals; ++j) {
        const uint64_t i = begin + j;
        size_t n = 0;
        for (const MemOp *op : lanes)
            addrs[n++] = op->addr + i * op->stride;
        const uint32_t txns = coalesceTransactions(
            std::span<const uint64_t>(addrs, n), lanes[0]->width,
            segment_bytes);
        period_sum += txns;
        if (j < rem)
            rem_sum += txns;
    }
    return static_cast<uint64_t>(len / period) * period_sum + rem_sum;
}

/**
 * Coalesces one aligned group memory operation: the lanes in @p group all
 * issued the MemOp at the same program point. Element i of lane l touches
 * address op.addr + i * op.stride; the coalescer merges lanes at each
 * element index. No inter-element DRAM reuse is assumed (Kepler-style
 * uncached global accesses), which is precisely what makes the row-major
 * layout expensive and motivates the buffer transpose (Section 4.3.2).
 */
void
coalesceGroupOp(std::span<const MemOp *const> ops, const WarpModel &model,
                WarpStats &stats)
{
    // Non-global spaces have no DRAM traffic; account and return.
    const MemSpace space = ops[0]->space;
    bool uniform_space = true;
    for (const MemOp *op : ops) {
        if (op->space != space)
            uniform_space = false;
    }

    if (uniform_space && space == MemSpace::Shared) {
        uint32_t max_count = 0;
        for (const MemOp *op : ops) {
            stats.sharedAccesses += op->count;
            max_count = std::max(max_count, op->count);
        }
        // Bank conflicts serialize the access into replays. The lane
        // buffer sizes to the group (one slot per op), so warp models
        // wider than the inline capacity stay exact.
        std::array<uint64_t, 64> inline_addrs;
        std::vector<uint64_t> heap_addrs;
        uint64_t *addrs = inline_addrs.data();
        if (ops.size() > inline_addrs.size()) {
            heap_addrs.resize(ops.size());
            addrs = heap_addrs.data();
        }
        for (uint32_t i = 0; i < max_count; ++i) {
            size_t n = 0;
            for (const MemOp *op : ops) {
                if (i < op->count)
                    addrs[n++] = op->addr +
                                 static_cast<uint64_t>(i) * op->stride;
            }
            stats.sharedReplaySlots += sharedBankReplays(
                std::span<const uint64_t>(addrs, n));
        }
        return;
    }
    if (uniform_space && space == MemSpace::Constant) {
        for (const MemOp *op : ops)
            stats.constantAccesses += op->count;
        return;
    }

    uint32_t max_count = 0;
    SpillBuf<const MemOp *, 64> global_ops;
    for (const MemOp *op : ops) {
        if (op->space == MemSpace::Global) {
            stats.globalBytes +=
                static_cast<uint64_t>(op->count) * op->width;
            max_count = std::max(max_count, op->count);
            global_ops.push(op);
        }
    }
    if (max_count == 0)
        return;
    const std::span<const MemOp *> global = global_ops.values();
    const uint32_t period = elementPeriod(global, model.segmentBytes);

    // Detect the uniform pattern (same count/stride/width across an
    // all-Global group) for the long-access extrapolation below.
    bool uniform = ops.size() > 1;
    for (const MemOp *op : ops) {
        if (op->space != MemSpace::Global || op->count != ops[0]->count ||
            op->stride != ops[0]->stride || op->width != ops[0]->width)
            uniform = false;
    }

    // One address slot per lane of the group; spill to the heap for
    // warp models wider than the inline capacity.
    std::array<uint64_t, 64> inline_addrs;
    std::vector<uint64_t> heap_addrs;
    uint64_t *addrs = inline_addrs.data();
    if (ops.size() > inline_addrs.size()) {
        heap_addrs.resize(ops.size());
        addrs = heap_addrs.data();
    }
    const uint32_t kExactLimit = 4096;

    if (uniform && max_count > kExactLimit) {
        // Sum a 128-element window and extrapolate it to the count,
        // rounding up. This is exact only when the count is a multiple
        // of the element period P (see elementPeriod()); otherwise the
        // window's average stands in for the partial last period.
        const uint32_t window = 128;
        const uint64_t window_txns = periodicTransactions(
            global, 0, window, period, model.segmentBytes, addrs);
        stats.globalTransactions +=
            window_txns * max_count / window +
            ((window_txns * max_count) % window ? 1 : 0);
        return;
    }

    if (period != 0) {
        // Split [0, max_count) at the lanes' counts into sub-ranges with
        // a fixed lane set; each is periodic. Sorted by descending
        // count, the lanes active up to a count are a prefix.
        std::sort(global.begin(), global.end(),
                  [](const MemOp *a, const MemOp *b) {
                      return a->count > b->count;
                  });
        uint32_t begin = 0;
        for (size_t k = global.size(); k-- > 0;) {
            const uint32_t end = global[k]->count;
            if (end <= begin)
                continue;
            stats.globalTransactions += periodicTransactions(
                global.first(k + 1), begin, end - begin, period,
                model.segmentBytes, addrs);
            begin = end;
        }
        return;
    }

    // Mixed strides or widths share no period: coalesce every element.
    for (uint32_t i = 0; i < max_count; ++i) {
        size_t n = 0;
        uint16_t width = 4;
        for (const MemOp *op : ops) {
            if (op->space == MemSpace::Global && i < op->count) {
                addrs[n++] = op->addr + static_cast<uint64_t>(i) * op->stride;
                width = op->width;
            }
        }
        if (n == 0)
            continue;
        stats.globalTransactions += coalesceTransactions(
            std::span<const uint64_t>(addrs, n), width,
            model.segmentBytes);
    }
}

/**
 * Shared lockstep scheduler. The @p kMemOps = false instantiation skips
 * the per-group memory-op alignment loop (the only consumer of MemOp
 * data), so the control-flow fields it produces are bit-equal to the
 * full simulation's by construction: the scheduler itself never
 * consults memOps.
 */
template <bool kMemOps>
WarpStats
simulateWarpImpl(std::span<const ThreadTrace *const> lanes,
                 const WarpModel &model)
{
    RHYTHM_ASSERT(static_cast<int>(lanes.size()) <= model.warpWidth,
                  "more lanes than the warp width");

    WarpStats stats;
    const size_t n = lanes.size();
    std::vector<size_t> pos(n, 0);
    std::vector<size_t> group;
    std::vector<const MemOp *> group_ops;
    group.reserve(n);

    for (size_t l = 0; l < n; ++l) {
        if (lanes[l]) {
            stats.laneBlockExecs += lanes[l]->blocks.size();
            stats.laneInstructions += lanes[l]->totalInstructions();
        }
    }

    // Sliding-window multiset of upcoming block ids per lane, covering
    // trace entries [pos+1, pos+reconvergenceWindow]. Used to detect
    // future merge points: a front block that another lane will reach
    // soon is deferred so the lanes can reconverge there (approximating
    // stack-based reconvergence on structured control flow).
    const size_t window = model.reconvergenceWindow;
    std::vector<std::unordered_map<uint32_t, uint32_t>> future(n);
    for (size_t l = 0; l < n; ++l) {
        if (!lanes[l])
            continue;
        const size_t limit = std::min(lanes[l]->blocks.size(), 1 + window);
        for (size_t k = 1; k < limit; ++k)
            ++future[l][lanes[l]->blocks[k].blockId];
    }
    auto advance_lane = [&](size_t l) {
        const size_t p = pos[l];
        const auto &blocks = lanes[l]->blocks;
        if (p + 1 < blocks.size()) {
            auto it = future[l].find(blocks[p + 1].blockId);
            if (it != future[l].end() && --it->second == 0)
                future[l].erase(it);
        }
        if (p + 1 + window < blocks.size())
            ++future[l][blocks[p + 1 + window].blockId];
        pos[l] = p + 1;
    };
    // True if any lane not currently at @p id will reach it soon.
    auto shared_in_future = [&](uint32_t id) {
        for (size_t m = 0; m < n; ++m) {
            if (!lanes[m] || pos[m] >= lanes[m]->blocks.size())
                continue;
            if (lanes[m]->blocks[pos[m]].blockId == id)
                continue; // lane is already at the block
            if (future[m].contains(id))
                return true;
        }
        return false;
    };

    for (;;) {
        // Candidate = a distinct front block. Selection priority:
        //  1. divergent-only blocks (no other lane will reach them soon)
        //     run first, so lanes do not execute past a merge point;
        //  2. larger lane count (amortize the fetch over more lanes);
        //  3. lowest id (determinism).
        uint32_t best_id = 0;
        size_t best_count = 0;
        bool best_shared = true;
        bool best_valid = false;
        for (size_t l = 0; l < n; ++l) {
            if (!lanes[l] || pos[l] >= lanes[l]->blocks.size())
                continue;
            const uint32_t id = lanes[l]->blocks[pos[l]].blockId;
            if (best_valid && id == best_id)
                continue;
            size_t count = 0;
            for (size_t m = 0; m < n; ++m) {
                if (lanes[m] && pos[m] < lanes[m]->blocks.size() &&
                    lanes[m]->blocks[pos[m]].blockId == id)
                    ++count;
            }
            const bool shared = shared_in_future(id);
            bool better = false;
            if (!best_valid) {
                better = true;
            } else if (shared != best_shared) {
                better = !shared;
            } else if (count != best_count) {
                better = count > best_count;
            } else {
                better = id < best_id;
            }
            if (better) {
                best_count = count;
                best_id = id;
                best_shared = shared;
                best_valid = true;
            }
        }
        if (!best_valid)
            break;

        group.clear();
        uint32_t max_insts = 0;
        uint32_t max_ops = 0;
        for (size_t l = 0; l < n; ++l) {
            if (lanes[l] && pos[l] < lanes[l]->blocks.size() &&
                lanes[l]->blocks[pos[l]].blockId == best_id) {
                group.push_back(l);
                const BlockExec &be = lanes[l]->blocks[pos[l]];
                max_insts = std::max(max_insts, be.instructions);
                max_ops = std::max(max_ops, be.memCount);
            }
        }

        // One fetch/issue sequence covers the whole group; lanes with
        // shorter dynamic weights are predicated off for the tail.
        stats.issueSlots += max_insts;
        stats.steps += 1;
        stats.activeLaneSteps += group.size();

        // Align memory ops by index within the block across the group.
        if constexpr (kMemOps) {
            for (uint32_t j = 0; j < max_ops; ++j) {
                group_ops.clear();
                for (size_t l : group) {
                    const BlockExec &be = lanes[l]->blocks[pos[l]];
                    if (j < be.memCount)
                        group_ops.push_back(
                            &lanes[l]->memOps[be.memBegin + j]);
                }
                if (!group_ops.empty())
                    coalesceGroupOp(std::span<const MemOp *const>(
                                        group_ops.data(), group_ops.size()),
                                    model, stats);
            }
        } else {
            (void)max_ops;
        }

        for (size_t l : group)
            advance_lane(l);
    }

    return stats;
}

} // namespace

WarpStats
simulateWarp(std::span<const ThreadTrace *const> lanes,
             const WarpModel &model)
{
    return simulateWarpImpl<true>(lanes, model);
}

WarpStats
mergeBlockSchedule(std::span<const ThreadTrace *const> lanes,
                   const WarpModel &model)
{
    return simulateWarpImpl<false>(lanes, model);
}

} // namespace rhythm::simt
