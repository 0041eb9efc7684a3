/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into each
 * layer's public functions (the traced run only).
 *
 * Each span carries its layer, start, end, parent (the enclosing span
 * on the same thread) and an identifier: the client id for injects and
 * response callbacks, the backend token for backend calls, the cohort
 * type for handler stages. Spans go into per-thread in-memory buffers,
 * because audited lane-parallel stages call runStage from pool
 * workers; nothing is written until the run ends.
 *
 * Self time is attributed on the wall clock of the timed phase: at any
 * instant, each thread contributes its innermost open span. The
 * instant belongs to the non-root layers that are active (split evenly
 * when several threads are busy in different layers) and to the root
 * ("core": rhythm + simt + des self time) when no layer span is open on
 * any thread. The layer self times therefore sum to the root's wall
 * time even when stages run on several threads.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/** Span kinds, one per layer boundary the benchmark wraps. */
enum class Layer : uint8_t {
    Run,        //!< The timed phase (queue.run()); the root.
    Inject,     //!< RhythmServer::injectRequest.
    FleetInject, //!< Fleet::injectRequest.
    CrossShard, //!< Fleet::beginCrossShardTransfer.
    Stage,      //!< Service::runStage.
    Backend,    //!< Service::executeBackend.
    Callback,   //!< The benchmark's response callback.
};
inline constexpr size_t kNumLayers = 7;

/** Printable layer name. */
std::string_view layerName(Layer layer);

/** Turns recording on or off (call only between timed phases). */
void setSpansEnabled(bool on);

/** Drops every recorded span (call only between timed phases). */
void clearSpans();

/** RAII span: records [construction, destruction) when enabled. */
class SpanScope
{
  public:
    SpanScope(Layer layer, uint64_t id);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int32_t index_ = -1;
};

/** Per-layer totals computed from the recorded spans. */
struct SpanSummary
{
    /** Wall time of the root span(s), seconds. */
    double wallSeconds = 0.0;
    /** Wall-clock self time attributed to each layer (sums to wall). */
    std::array<double, kNumLayers> selfSeconds{};
    /** Self time summed over threads (may exceed wall when parallel). */
    std::array<double, kNumLayers> busySeconds{};
    std::array<uint64_t, kNumLayers> calls{};
    uint64_t spans = 0;
    uint32_t threads = 0;
    /** Time inside non-root spans opened outside any root span. */
    double unrootedSeconds = 0.0;
};

/** Summarizes the spans recorded since the last clearSpans(). */
SpanSummary summarizeSpans();

/**
 * Writes every recorded span as tab-separated text: thread, index,
 * parent, layer, id, start_ns, end_ns (times relative to the earliest
 * span). @return false on I/O failure.
 */
bool writeSpans(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
