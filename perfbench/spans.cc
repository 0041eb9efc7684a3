#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span
{
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1;
    Layer layer = Layer::Run;
    uint64_t id = 0;
};

/** One thread's spans plus its stack of open span indices. */
struct ThreadBuffer
{
    std::vector<Span> spans;
    std::vector<int32_t> open;
};

std::atomic<bool> gEnabled{false};

/** Owns every thread's buffer so spans outlive pool workers. */
struct Registry
{
    std::mutex mutex; //!< Guards buffers.
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buffer = nullptr;
    if (!buffer) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<ThreadBuffer>());
        buffer = r.buffers.back().get();
    }
    return *buffer;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Sweep-event code of a root span's whole interval (layer codes are
 *  layer + 1). */
constexpr int kRootOpen = static_cast<int>(kNumLayers) + 1;

/** A piece of one thread's timeline owned by one span's layer. */
struct Segment
{
    int64_t start;
    int64_t end;
    Layer layer;
};

/** Appends span @p i's self segments: its interval minus its children. */
void
selfSegments(const std::vector<Span> &spans,
             const std::vector<std::vector<int32_t>> &children, int32_t i,
             std::vector<Segment> &out)
{
    const Span &s = spans[static_cast<size_t>(i)];
    int64_t cursor = s.start;
    for (const int32_t c : children[static_cast<size_t>(i)]) {
        const Span &child = spans[static_cast<size_t>(c)];
        if (child.start > cursor)
            out.push_back({cursor, child.start, s.layer});
        cursor = std::max(cursor, child.end);
        selfSegments(spans, children, c, out);
    }
    if (s.end > cursor)
        out.push_back({cursor, s.end, s.layer});
}

} // namespace

std::string_view
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Run: return "run";
      case Layer::Inject: return "inject";
      case Layer::FleetInject: return "fleet_inject";
      case Layer::CrossShard: return "cross_shard";
      case Layer::Stage: return "stage";
      case Layer::Backend: return "backend";
      case Layer::Callback: return "callback";
    }
    return "?";
}

void
setSpansEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

void
clearSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto &b : r.buffers) {
        b->spans.clear();
        b->open.clear();
    }
}

SpanScope::SpanScope(Layer layer, uint64_t id)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    ThreadBuffer &b = localBuffer();
    index_ = static_cast<int32_t>(b.spans.size());
    b.spans.push_back(
        Span{nowNs(), 0, b.open.empty() ? -1 : b.open.back(), layer, id});
    b.open.push_back(index_);
}

SpanScope::~SpanScope()
{
    if (index_ < 0)
        return;
    ThreadBuffer &b = localBuffer();
    b.spans[static_cast<size_t>(index_)].end = nowNs();
    b.open.pop_back();
}

SpanSummary
summarizeSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    SpanSummary sum;
    // Per-thread self segments, then one sweep over all threads.
    std::vector<std::pair<int64_t, int>> events; // (time, +/-(layer+1))
    for (const auto &b : r.buffers) {
        if (b->spans.empty())
            continue;
        ++sum.threads;
        sum.spans += b->spans.size();
        std::vector<std::vector<int32_t>> children(b->spans.size());
        std::vector<int32_t> roots;
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const Span &s = b->spans[i];
            ++sum.calls[static_cast<size_t>(s.layer)];
            if (s.layer == Layer::Run) {
                sum.wallSeconds += static_cast<double>(s.end - s.start) * 1e-9;
                events.emplace_back(s.start, kRootOpen);
                events.emplace_back(s.end, -kRootOpen);
            }
            if (s.parent < 0)
                roots.push_back(static_cast<int32_t>(i));
            else
                children[static_cast<size_t>(s.parent)].push_back(
                    static_cast<int32_t>(i));
        }
        std::vector<Segment> segs;
        for (const int32_t root : roots)
            selfSegments(b->spans, children, root, segs);
        for (const Segment &g : segs) {
            const int code = static_cast<int>(g.layer) + 1;
            sum.busySeconds[static_cast<size_t>(g.layer)] +=
                static_cast<double>(g.end - g.start) * 1e-9;
            events.emplace_back(g.start, code);
            events.emplace_back(g.end, -code);
        }
    }
    std::sort(events.begin(), events.end());
    // active[l] counts threads whose innermost open span is layer l;
    // active[kNumLayers] counts open root spans.
    std::array<int64_t, kNumLayers + 1> active{};
    int64_t prev = events.empty() ? 0 : events.front().first;
    for (const auto &[t, code] : events) {
        const double dt = static_cast<double>(t - prev) * 1e-9;
        prev = t;
        if (dt > 0) {
            int64_t busy = 0;
            for (size_t l = 1; l < kNumLayers; ++l)
                busy += active[l];
            if (busy > 0) {
                // Unrooted time (a worker busy while no root is open)
                // cannot happen while the benchmark only records inside
                // the timed phase; it is reported, not attributed.
                if (active[kNumLayers] == 0) {
                    sum.unrootedSeconds += dt;
                } else {
                    for (size_t l = 1; l < kNumLayers; ++l)
                        sum.selfSeconds[l] += dt *
                                              static_cast<double>(active[l]) /
                                              static_cast<double>(busy);
                }
            } else if (active[kNumLayers] > 0) {
                sum.selfSeconds[0] += dt;
            }
        }
        const size_t layer = static_cast<size_t>(code > 0 ? code : -code) - 1;
        active[layer] += code > 0 ? 1 : -1;
    }
    return sum;
}

bool
writeSpans(const std::string &path)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    int64_t origin = std::numeric_limits<int64_t>::max();
    for (const auto &b : r.buffers)
        for (const Span &s : b->spans)
            origin = std::min(origin, s.start);
    std::ofstream out(path);
    out << "thread\tindex\tparent\tlayer\tid\tstart_ns\tend_ns\n";
    for (size_t t = 0; t < r.buffers.size(); ++t) {
        const std::vector<Span> &spans = r.buffers[t]->spans;
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << t << '\t' << i << '\t' << s.parent << '\t'
                << layerName(s.layer) << '\t' << s.id << '\t'
                << s.start - origin << '\t' << s.end - origin << '\n';
        }
    }
    out.flush();
    return out.good();
}

} // namespace perfbench
