#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "backend/bankdb.hh"
#include "backend/recovery.hh"
#include "bench/common.hh"
#include "chat/service.hh"
#include "chat/store.hh"
#include "des/event_queue.hh"
#include "net/arrival.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/fleet.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "specweb/workload.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace perfbench {
namespace {

using namespace rhythm;
using Clock = std::chrono::steady_clock;

/** Lanes every workload's servers execute per cohort (laneSample); the
 *  rest of a cohort is answered without bytes. */
constexpr uint32_t kLaneSample = 128;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------
// Response ledger: the correctness gate and the latency record.
// ---------------------------------------------------------------------

/** Checks one response against the request type it answers. */
using Validator = bool (*)(uint8_t type, std::string_view response);

bool
validateBanking(uint8_t type, std::string_view response)
{
    return specweb::validateResponse(static_cast<specweb::RequestType>(type),
                                     response)
        .ok;
}

bool
validateChat(uint8_t type, std::string_view response)
{
    return chat::validateChatResponse(static_cast<chat::PageType>(type),
                                      response);
}

/** True for an HTTP response whose status is 4xx or 5xx. */
bool
isErrorReply(std::string_view response)
{
    constexpr std::string_view kPrefix = "HTTP/1.1 ";
    return response.size() > kPrefix.size() &&
           response.substr(0, kPrefix.size()) == kPrefix &&
           (response[kPrefix.size()] == '4' || response[kPrefix.size()] == '5');
}

/**
 * Every request a run offers, and what came back for it. Client ids
 * are ledger indices + 1 (closed loops: the server numbers pulled
 * requests the same way). Records each response once, validates every
 * executed lane that is not an error reply, folds every response into
 * an order-insensitive digest and times itself so the callback can be
 * subtracted from host time.
 */
class Ledger
{
  public:
    Ledger(Validator validator, des::Time limit, bool open_loop)
        : validator_(validator), limit_(limit), openLoop_(open_loop)
    {
    }

    /** Registers the next request; returns its client id. */
    uint64_t expect(uint8_t type, des::Time due)
    {
        types_.push_back(type);
        due_.push_back(due);
        return types_.size();
    }

    uint64_t expected() const { return types_.size(); }
    des::Time due(uint64_t id) const { return due_[id - 1]; }

    /** The response callback body. @p now is the simulated time. */
    void onResponse(uint64_t id, std::string_view response,
                    des::Time latency, des::Time now)
    {
        const Clock::time_point t0 = Clock::now();
        {
            SpanScope span(Layer::Callback, id);
            record(id, response, latency, now);
        }
        callbackSeconds += secondsSince(t0);
    }

    /** Requests never answered. */
    uint64_t unanswered() const
    {
        return static_cast<uint64_t>(
            std::count(seen_.begin(), seen_.end(), uint8_t{0}) +
            static_cast<std::ptrdiff_t>(types_.size() - seen_.size()));
    }

    /** Latency (ms) of every answered request, by client id - 1. */
    const std::vector<double> &latenciesMs() const { return latMs_; }

    Histogram latencyMs;
    /** Responses that carry bytes: the lanes the pipeline executed. */
    uint64_t executed = 0;
    /** 4xx/5xx responses (shed, failed lanes): checked against the
     *  servers' error counts, not validated. */
    uint64_t errorReplies = 0;
    uint64_t invalid = 0;
    uint64_t duplicates = 0;
    uint64_t unknown = 0;
    uint64_t withinLimit = 0;
    uint64_t digest = 0;
    double callbackSeconds = 0.0;
    std::string firstError;

  private:
    void record(uint64_t id, std::string_view response, des::Time latency,
                des::Time now)
    {
        if (id == 0 || id > types_.size()) {
            ++unknown;
            note("response for unknown client id " + std::to_string(id));
            return;
        }
        if (seen_.size() < types_.size()) {
            seen_.resize(types_.size(), 0);
            latMs_.resize(types_.size(), 0.0);
        }
        if (seen_[id - 1]++) {
            ++duplicates;
            note("client " + std::to_string(id) + " answered twice");
            return;
        }
        // Open loop: time from when the request was due, so a refused
        // and retried injection counts its wait.
        const des::Time lat = openLoop_ ? now - due_[id - 1] : latency;
        const double ms = des::toMillis(lat);
        latencyMs.add(ms);
        latMs_[id - 1] = ms;

        // A cohort delivers its min(n, kLaneSample) executed lanes first,
        // then the lanes the pipeline sampled away, which carry no bytes.
        // So a run of responses without bytes must follow at least
        // kLaneSample with bytes.
        bool ok = true;
        if (response.empty()) {
            if (!lastEmpty_ && bytesRun_ < kLaneSample)
                note("client " + std::to_string(id) + ": no bytes after " +
                     std::to_string(bytesRun_) + " executed lanes");
            lastEmpty_ = true;
        } else {
            if (lastEmpty_)
                bytesRun_ = 0;
            lastEmpty_ = false;
            ++bytesRun_;
            ++executed;
            if (isErrorReply(response)) {
                ok = false;
                ++errorReplies;
            } else if (!validator_(types_[id - 1], response)) {
                ok = false;
                ++invalid;
                note("client " + std::to_string(id) + " type " +
                     std::to_string(types_[id - 1]) +
                     ": response failed validation");
            }
        }
        if (ok && lat <= limit_)
            ++withinLimit;

        util::Fnv1a64 h;
        h.update(id);
        h.update(response.size());
        uint64_t word = 0;
        int shift = 0;
        for (const char c : response) {
            word |= static_cast<uint64_t>(static_cast<unsigned char>(c))
                    << shift;
            shift += 8;
            if (shift == 64) {
                h.update(word);
                word = 0;
                shift = 0;
            }
        }
        if (shift > 0)
            h.update(word);
        digest += h.digest();
    }

    void note(const std::string &what)
    {
        if (firstError.empty())
            firstError = what;
    }

    Validator validator_;
    des::Time limit_;
    bool openLoop_;
    std::vector<uint8_t> types_;
    std::vector<des::Time> due_;
    std::vector<uint8_t> seen_;
    std::vector<double> latMs_;
    /** Responses with bytes delivered since the last one without. */
    uint32_t bytesRun_ = 0;
    bool lastEmpty_ = false;
};

// ---------------------------------------------------------------------
// The tracing decorator around a Service.
// ---------------------------------------------------------------------

/**
 * Forwards every Service call to the wrapped service and records a
 * span around each handler stage and backend call (traced runs only).
 */
class TracedService : public core::Service
{
  public:
    explicit TracedService(core::Service &inner) : inner_(inner) {}

    uint32_t numTypes() const override { return inner_.numTypes(); }
    bool resolveType(const http::Request &request,
                     uint32_t &type_id) const override
    {
        return inner_.resolveType(request, type_id);
    }
    std::string_view typeName(uint32_t type_id) const override
    {
        return inner_.typeName(type_id);
    }
    int numStages(uint32_t type_id) const override
    {
        return inner_.numStages(type_id);
    }
    uint32_t responseBufferBytes(uint32_t type_id) const override
    {
        return inner_.responseBufferBytes(type_id);
    }
    void runStage(uint32_t type_id, int stage,
                  specweb::HandlerContext &ctx) const override
    {
        SpanScope span(Layer::Stage, type_id);
        inner_.runStage(type_id, stage, ctx);
    }
    bool stageIsLaneParallel(uint32_t type_id, int stage) const override
    {
        return inner_.stageIsLaneParallel(type_id, stage);
    }
    std::string executeBackend(std::string_view request,
                               simt::TraceRecorder &rec) override
    {
        SpanScope span(Layer::Backend, 0);
        return inner_.executeBackend(request, rec);
    }
    std::string executeBackend(std::string_view request, uint64_t token,
                               simt::TraceRecorder &rec) override
    {
        SpanScope span(Layer::Backend, token);
        return inner_.executeBackend(request, token, rec);
    }
    bool backendExactlyOnce() const override
    {
        return inner_.backendExactlyOnce();
    }
    uint32_t backendRequestSlotBytes() const override
    {
        return inner_.backendRequestSlotBytes();
    }
    uint32_t backendResponseSlotBytes() const override
    {
        return inner_.backendResponseSlotBytes();
    }
    std::optional<std::string>
    serveFallback(const http::Request &request,
                  specweb::SessionProvider &sessions,
                  simt::TraceRecorder &rec) override
    {
        SpanScope span(Layer::Stage, numTypes());
        return inner_.serveFallback(request, sessions, rec);
    }

  private:
    core::Service &inner_;
};

// ---------------------------------------------------------------------
// Simulated-metric aggregation over one or more server/device pairs.
// ---------------------------------------------------------------------

/** Public stats of the servers and devices of one run, combined. */
struct SimAgg
{
    double simSeconds = 0.0;
    uint64_t accepted = 0, responses = 0, errors = 0, shed = 0;
    uint64_t readerDrops = 0, cohorts = 0, timeouts = 0, early = 0;
    uint64_t fused = 0, paddedLanes = 0, paddingBytes = 0;
    uint64_t backendRequests = 0, deadlineMisses = 0, hostFallback = 0;
    uint64_t cohortCapacity = 0, disconnects = 0;
    /** Lower bound on the responses that carry bytes (executed lanes). */
    uint64_t minExecuted = 0;
    /** Worst server's percentiles (one server: that server's). */
    double formationP50 = 0, formationP99 = 0;
    double pipelineP50 = 0, pipelineP99 = 0;
    double issueSlots = 0, laneInstructions = 0;
    uint64_t launches = 0, warps = 0, globalTxns = 0;
    /** Means over devices. */
    double kernelUtil = 0, dramUtil = 0, h2dUtil = 0, d2hUtil = 0;
    uint64_t pcieBytes = 0;
    /** Sums over devices (each device is one Table 3 system). */
    double dynamicWatts = 0, idleWatts = 0;
    uint64_t events = 0, maxPending = 0;
    int warpWidth = 32;

    double throughput() const
    {
        return simSeconds > 0 ? static_cast<double>(responses) / simSeconds
                              : 0.0;
    }
    double reqsPerJoule() const
    {
        return throughput() / (idleWatts + dynamicWatts);
    }
};

/** Adds one server/device pair (power: the model rhythm_sim uses). */
void
addPair(SimAgg &a, const core::RhythmServer &server,
        const simt::Device &device, double elapsed,
        const platform::TitanPowerModel &pm, double devices)
{
    const core::RhythmStats &s = server.stats();
    a.accepted += s.requestsAccepted;
    a.responses += s.responsesCompleted;
    a.errors += s.errorResponses;
    a.shed += s.requestsShed;
    a.readerDrops += s.readerDrops;
    a.cohorts += s.cohortsLaunched;
    a.timeouts += s.cohortTimeouts;
    a.early += s.adaptiveEarlyDispatches;
    a.fused += s.fusedLaunches;
    a.paddedLanes += s.paddedLanes;
    a.paddingBytes += s.paddingBytes;
    a.backendRequests += s.backendRequests;
    a.deadlineMisses += s.deadlineMisses + s.typedDeadlineMisses;
    a.hostFallback += s.hostFallbackRequests + s.imageRequests;
    a.cohortCapacity += s.cohortsLaunched * server.config().cohortSize;
    a.disconnects += s.clientDisconnects;
    // A cohort of n requests executes min(n, kLaneSample) lanes: at least
    // one, and at least n * kLaneSample / cohortSize since n <= cohortSize.
    const uint64_t size = server.config().cohortSize;
    const uint64_t in_cohorts =
        s.requestsAccepted -
        std::min(s.requestsAccepted, s.requestsShed + s.hostFallbackRequests +
                                         s.imageRequests);
    const uint64_t executed = std::max<uint64_t>(
        s.cohortsLaunched, (in_cohorts * kLaneSample + size - 1) / size);
    a.minExecuted += executed - std::min(executed, s.clientDisconnects);
    a.formationP50 = std::max(a.formationP50, s.formationMs.median());
    a.formationP99 = std::max(a.formationP99, s.formationMs.percentile(99));
    a.pipelineP50 = std::max(a.pipelineP50, s.pipelineMs.median());
    a.pipelineP99 = std::max(a.pipelineP99, s.pipelineMs.percentile(99));
    a.issueSlots += s.processIssueSlots;
    a.laneInstructions += s.processLaneInstructions;
    a.warpWidth = server.config().warpModel.warpWidth;

    const simt::Engine &engine = device.engine();
    a.launches += engine.launches();
    a.warps += engine.warps();
    for (const auto &sm : engine.smCounters())
        a.globalTxns += sm.stats.globalTransactions;

    const simt::Device::Stats d = device.stats();
    const double util = device.kernelUtilization();
    const double mem_util =
        elapsed > 0 ? static_cast<double>(d.kernelMemoryBytes) /
                          (device.config().memBandwidthGBs *
                           device.config().memoryEfficiency * 1e9 * elapsed)
                    : 0.0;
    const double copy_util =
        elapsed > 0 ? std::max(d.h2dBusySeconds, d.d2hBusySeconds) / elapsed
                    : 0.0;
    const double activity = pm.computeWeight * util +
                            (1.0 - pm.computeWeight) * std::min(1.0, mem_util);
    a.dynamicWatts +=
        pm.devicePeakWatts *
            (pm.deviceActiveFloor + (1 - pm.deviceActiveFloor) * activity) +
        pm.pcieWatts * std::min(1.0, copy_util);
    a.idleWatts += pm.idleWatts;
    a.kernelUtil += util / devices;
    a.dramUtil += std::min(1.0, mem_util) / devices;
    a.h2dUtil += (elapsed > 0 ? d.h2dBusySeconds / elapsed : 0.0) / devices;
    a.d2hUtil += (elapsed > 0 ? d.d2hBusySeconds / elapsed : 0.0) / devices;
    a.pcieBytes += d.bytesToDevice + d.bytesToHost;
}

void
addQueue(SimAgg &a, const des::EventQueue &queue)
{
    a.simSeconds = des::toSeconds(queue.now());
    a.events += queue.dispatched();
    a.maxPending = std::max<uint64_t>(a.maxPending, queue.maxPending());
}

/** Extra per-layer values that only some workloads produce. */
struct Extras
{
    uint64_t journalRecords = 0;
    uint64_t checkpoints = 0;
    double imbalance = 0.0;
    uint64_t crossStarted = 0, crossCompleted = 0, crossRejected = 0;
    double titanBThrErr = 0.0, titanBRpjErr = 0.0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The simulated per-layer metrics (same names for every workload). */
std::vector<Metric>
layerMetrics(const SimAgg &a, const Ledger &ledger, const Extras &x)
{
    const double served = static_cast<double>(a.responses + a.errors);
    const double in_cohorts = static_cast<double>(
        a.accepted - std::min(a.accepted, a.shed + a.hostFallback));
    return {
        {"sim.latency_samples", "count",
         static_cast<double>(ledger.latencyMs.count())},
        {"rhythm.formation_p50_ms", "sim_ms", a.formationP50},
        {"rhythm.formation_p99_ms", "sim_ms", a.formationP99},
        {"rhythm.cohort_timeouts", "count", static_cast<double>(a.timeouts)},
        {"rhythm.early_dispatches", "count", static_cast<double>(a.early)},
        {"rhythm.pipeline_p50_ms", "sim_ms", a.pipelineP50},
        {"rhythm.pipeline_p99_ms", "sim_ms", a.pipelineP99},
        {"rhythm.cohorts", "count", static_cast<double>(a.cohorts)},
        {"rhythm.cohort_fill", "fraction",
         ratio(in_cohorts, static_cast<double>(a.cohortCapacity))},
        {"rhythm.padding_bytes_per_req", "B/req",
         ratio(static_cast<double>(a.paddingBytes), served)},
        {"rhythm.fused_launches", "count", static_cast<double>(a.fused)},
        {"rhythm.padded_lanes", "count", static_cast<double>(a.paddedLanes)},
        {"rhythm.shed", "count", static_cast<double>(a.shed)},
        {"rhythm.reader_drops", "count", static_cast<double>(a.readerDrops)},
        {"rhythm.deadline_misses", "count",
         static_cast<double>(a.deadlineMisses)},
        {"backend.requests", "count", static_cast<double>(a.backendRequests)},
        {"backend.journal_records", "count",
         static_cast<double>(x.journalRecords)},
        {"backend.checkpoints", "count", static_cast<double>(x.checkpoints)},
        {"simt.launches", "count", static_cast<double>(a.launches)},
        {"simt.warps", "count", static_cast<double>(a.warps)},
        {"simt.simd_efficiency", "fraction",
         ratio(a.laneInstructions, a.issueSlots * a.warpWidth)},
        {"simt.global_txns_per_warp", "txn/warp",
         ratio(static_cast<double>(a.globalTxns),
               static_cast<double>(a.warps))},
        {"simt.kernel_util", "fraction", a.kernelUtil},
        {"simt.dram_util", "fraction", a.dramUtil},
        {"pcie.bytes_per_req", "B/req",
         ratio(static_cast<double>(a.pcieBytes), served)},
        {"pcie.h2d_util", "fraction", a.h2dUtil},
        {"pcie.d2h_util", "fraction", a.d2hUtil},
        {"des.events", "count", static_cast<double>(a.events)},
        {"des.max_pending", "count", static_cast<double>(a.maxPending)},
        {"fleet.imbalance", "ratio", x.imbalance},
        {"fleet.cross_started", "count", static_cast<double>(x.crossStarted)},
        {"fleet.cross_completed", "count",
         static_cast<double>(x.crossCompleted)},
        {"fleet.cross_rejected", "count",
         static_cast<double>(x.crossRejected)},
        {"platform.dynamic_watts", "W", a.dynamicWatts},
        {"platform.titanB_thr_err", "fraction", x.titanBThrErr},
        {"platform.titanB_rpj_err", "fraction", x.titanBRpjErr},
    };
}

/** The simulated end-to-end metrics (same names for every workload). */
std::vector<Metric>
endToEndMetrics(const SimAgg &a, const Ledger &ledger, double max_rate,
                uint64_t attempted, uint64_t failed)
{
    const double secs = a.simSeconds;
    return {
        {"sim_throughput_rps", "req/sim_s", a.throughput()},
        {"sim_p50_ms", "sim_ms", ledger.latencyMs.median()},
        {"sim_p99_ms", "sim_ms", ledger.latencyMs.percentile(99)},
        {"sim_goodput_rps", "req/sim_s",
         ratio(static_cast<double>(ledger.withinLimit), secs)},
        {"sim_max_rate_rps", "req/sim_s", max_rate},
        {"sim_reqs_per_joule", "req/J", a.reqsPerJoule()},
        {"served_frac", "fraction",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted))},
    };
}

/** Marks @p r incorrect, keeping the first reason. */
void
failRep(RepResult &r, const std::string &why)
{
    if (r.correct) {
        r.correct = false;
        r.error = why;
    }
}

/** Checks one server's conservation invariant, accepted == responses
 *  + errors + shed. */
void
checkServer(const core::RhythmStats &s, RepResult &r, const std::string &label)
{
    if (s.requestsAccepted !=
        s.responsesCompleted + s.errorResponses + s.requestsShed)
        failRep(r, label + ": accepted != responses + errors + shed");
}

/**
 * Checks the responses in @p ledger against the stats of the servers
 * that sent them (@p a): every request answered exactly once, every
 * executed lane validated or counted by a server as an error, and at
 * least as many executed lanes as the servers' cohorts guarantee.
 * @return The requests the servers failed (error responses + shed).
 */
uint64_t
checkLedger(const Ledger &ledger, const SimAgg &a, RepResult &r)
{
    if (!ledger.firstError.empty())
        failRep(r, ledger.firstError);
    if (const uint64_t n = ledger.unanswered())
        failRep(r, std::to_string(n) + " requests never answered");
    if (ledger.errorReplies + a.disconnects != a.errors + a.shed)
        failRep(r, std::to_string(ledger.errorReplies) +
                       " error replies, servers counted " +
                       std::to_string(a.errors + a.shed - a.disconnects));
    if (ledger.executed < a.minExecuted)
        failRep(r, std::to_string(ledger.executed) +
                       " responses carry bytes, cohorts guarantee " +
                       std::to_string(a.minExecuted));
    return a.errors + a.shed;
}

/** Copies the per-repetition totals every workload reports. */
void
fillTotals(RepResult &r, const SimAgg &a, const Ledger &ledger)
{
    r.responses = a.responses;
    r.digest = ledger.digest;
    r.callbackSeconds = ledger.callbackSeconds;
    r.warps = a.warps;
    r.events = a.events;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/** Accumulates the named host set-up phases. */
class SetupClock
{
  public:
    explicit SetupClock(std::vector<Metric> &out) : out_(out)
    {
        for (const char *name :
             {"host.setup.db_populate_s", "host.setup.sessions_s",
              "host.setup.generate_s", "host.setup.construct_s"})
            out_.push_back({name, "s", 0.0});
    }

    /** Runs @p fn and adds its wall time to the phase @p name. */
    template <typename Fn>
    void time(std::string_view name, Fn &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        fn();
        const double dt = secondsSince(t0);
        for (Metric &m : out_)
            if (m.name == name)
                m.value += dt;
    }

  private:
    std::vector<Metric> &out_;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Builds everything the timed phase needs (timed as setup_s). */
    virtual void setup(uint64_t seed, bool traced, SetupClock &clock) = 0;
    /** Captures check baselines after setup (untimed). */
    virtual void prepareChecks() {}
    /** The timed phase. */
    virtual void run() = 0;
    /** Output checks and simulated metrics. */
    virtual void finish(RepResult &r) = 0;
};

/** One server on one device with its event queue and ledger. */
struct ServerRig
{
    ServerRig(const platform::TitanVariant &variant,
              const core::RhythmConfig &config,
              std::unique_ptr<core::Service> service, bool traced,
              Ledger ledger_in)
        : device(queue, variant.device), service(std::move(service)),
          ledger(std::move(ledger_in)), power(variant.power)
    {
        if (traced)
            tracer = std::make_unique<TracedService>(*this->service);
        server = std::make_unique<core::RhythmServer>(
            queue, device,
            tracer ? static_cast<core::Service &>(*tracer) : *this->service,
            config);
        server->setResponseCallback(
            [this](uint64_t id, std::string_view response, des::Time lat) {
                ledger.onResponse(id, response, lat, queue.now());
            });
    }

    SimAgg aggregate() const
    {
        SimAgg a;
        addQueue(a, queue);
        addPair(a, *server, device, a.simSeconds, power, 1.0);
        return a;
    }

    des::EventQueue queue;
    simt::Device device;
    std::unique_ptr<core::Service> service;
    std::unique_ptr<TracedService> tracer;
    std::unique_ptr<core::RhythmServer> server;
    Ledger ledger;
    platform::TitanPowerModel power;
};

/** A Table 2 banking type, excluding login/logout (the browsing steady
 *  state: session churn would drain the pre-populated pool). */
specweb::RequestType
browsingType(specweb::WorkloadGenerator &gen)
{
    specweb::RequestType type = gen.sampleType();
    while (type == specweb::RequestType::Login ||
           type == specweb::RequestType::Logout)
        type = gen.sampleType();
    return type;
}

/**
 * A pre-generated request stream pulled by one server through
 * start(Source), the paper's idealised closed loop.
 */
class ClosedLoop : public Workload
{
  public:
    void run() override
    {
        rig_->server->start([this]() -> std::optional<std::string> {
            if (next_ >= raws_.size())
                return std::nullopt;
            return std::move(raws_[next_++]);
        });
        rig_->queue.run();
    }

    void finish(RepResult &r) override
    {
        const SimAgg a = rig_->aggregate();
        r.attempted = raws_.size();
        checkServer(rig_->server->stats(), r, "server");
        r.failed = checkLedger(rig_->ledger, a, r);
        // A saturated closed loop runs at capacity: its throughput is
        // the highest rate this configuration sustains.
        r.simEndToEnd = endToEndMetrics(a, rig_->ledger, a.throughput(),
                                        r.attempted, r.failed);
        r.simLayers = layerMetrics(a, rig_->ledger, extras(a));
        fillTotals(r, a, rig_->ledger);
    }

  protected:
    /** Workload-specific per-layer values. */
    virtual Extras extras(const SimAgg &) const { return {}; }

    /** A Titan B server configuration with @p cohort_size cohorts. */
    static core::RhythmConfig titanBConfig(uint32_t cohort_size)
    {
        core::RhythmConfig cfg = platform::titanB().server;
        cfg.cohortSize = cohort_size;
        cfg.cohortContexts = 16;
        cfg.cohortTimeout = 2 * des::kMillisecond;
        cfg.laneSample = kLaneSample;
        return cfg;
    }

    std::unique_ptr<ServerRig> rig_;
    std::vector<std::string> raws_;

  private:
    size_t next_ = 0;
};

/** Banking on Titan B, closed loop, full cohorts, multi-threaded engine. */
class ClosedTitanB : public ClosedLoop
{
  public:
    static constexpr uint64_t kUsers = 2000;
    static constexpr uint32_t kCohortSize = 4096;
    static constexpr uint64_t kRequests = 40ull * kCohortSize;
    static constexpr uint64_t kSessions = 8192;
    /** Goodput limit: a closed loop that always has a request ready
     *  queues whole cohorts behind each other, so its latency reflects
     *  cohort turnaround, not a client's patience. */
    static constexpr des::Time kLimit = 200 * des::kMillisecond;

    void setup(uint64_t seed, bool traced, SetupClock &clock) override
    {
        clock.time("host.setup.db_populate_s", [&] {
            db_ = std::make_unique<backend::BankDb>(kUsers, seed);
        });
        clock.time("host.setup.construct_s", [&] {
            rig_ = std::make_unique<ServerRig>(
                platform::titanB(), titanBConfig(kCohortSize),
                std::make_unique<core::BankingService>(*db_), traced,
                Ledger(validateBanking, kLimit, false));
        });
        std::vector<std::pair<uint64_t, uint64_t>> pool;
        clock.time("host.setup.sessions_s", [&] {
            pool = rig_->server->sessions().populate(kSessions, kUsers);
        });
        clock.time("host.setup.generate_s", [&] {
            specweb::WorkloadGenerator gen(*db_, seed * 31 + 7);
            raws_.reserve(kRequests);
            for (uint64_t i = 0; i < kRequests; ++i) {
                const specweb::RequestType type = browsingType(gen);
                const auto &[sid, user] = pool[i % pool.size()];
                raws_.push_back(gen.generate(type, user, sid).raw);
                rig_->ledger.expect(static_cast<uint8_t>(type), 0);
            }
        });
    }

  private:
    /** Accuracy beside the headline: Table 3's Titan B row. */
    Extras extras(const SimAgg &a) const override
    {
        Extras x;
        for (const bench::PaperTable3Row &row : bench::kPaperTable3) {
            if (std::string_view(row.name) == "Titan B") {
                x.titanBThrErr = a.throughput() / (row.throughputK * 1e3) - 1.0;
                x.titanBRpjErr = a.reqsPerJoule() / row.rpjWall - 1.0;
            }
        }
        return x;
    }

    std::unique_ptr<backend::BankDb> db_;
};

/**
 * Open-loop injection of a pre-generated schedule into one server: each
 * request is injected at its due time; a reader-full refusal is retried
 * after kRetryDelay (the request keeps its due time, so the wait shows
 * in its latency).
 */
class OpenLoopDriver
{
  public:
    static constexpr des::Time kRetryDelay = 20 * des::kMicrosecond;

    struct Arrival
    {
        des::Time due = 0;
        std::string raw;
        uint64_t user = 0;
        uint32_t type = 0;
        /** Also start a cross-shard transfer (fleet only). */
        bool cross = false;
        uint64_t payee = 0;
        int64_t cents = 0;
    };

    using Inject = std::function<bool(const Arrival &, uint64_t id)>;

    OpenLoopDriver(des::EventQueue &queue, std::vector<Arrival> &arrivals,
                   Inject inject)
        : queue_(queue), arrivals_(arrivals), inject_(std::move(inject))
    {
    }

    /** Schedules the first arrival; the chain schedules the rest. */
    void start()
    {
        if (!arrivals_.empty())
            queue_.scheduleAt(arrivals_[0].due, [this] { arrive(0); });
    }

  private:
    void arrive(size_t i)
    {
        attempt(i);
        if (i + 1 < arrivals_.size())
            queue_.scheduleAt(arrivals_[i + 1].due,
                              [this, i] { arrive(i + 1); });
    }

    void attempt(size_t i)
    {
        if (inject_(arrivals_[i], i + 1))
            return;
        queue_.scheduleAfter(kRetryDelay, [this, i] { attempt(i); });
    }

    des::EventQueue &queue_;
    std::vector<Arrival> &arrivals_;
    Inject inject_;
};

/**
 * Banking on Titan A, open-loop Poisson arrivals over a rate ladder,
 * 1024-request cohorts with a formation timeout, a large bank DB.
 */
class OpenTitanABigDb : public Workload
{
  public:
    static constexpr uint64_t kUsers = 20000;
    static constexpr uint32_t kCohortSize = 1024;
    static constexpr uint64_t kSessions = 8192;
    /** Requests offered per ladder step. */
    static constexpr uint64_t kPerStep = 4096;
    /** Offered rates: below, near and above the PCIe ceiling. */
    static constexpr double kRates[] = {150e3, 300e3, 900e3};
    /** The step whose latency/throughput are the headline. */
    static constexpr size_t kHeadline = 1;
    static constexpr des::Time kLimit = 10 * des::kMillisecond;

    void setup(uint64_t seed, bool traced, SetupClock &clock) override
    {
        clock.time("host.setup.db_populate_s", [&] {
            db_ = std::make_unique<backend::BankDb>(kUsers, seed);
        });
        const platform::TitanVariant v = platform::titanA();
        core::RhythmConfig cfg = v.server;
        cfg.cohortSize = kCohortSize;
        cfg.cohortContexts = 16;
        cfg.cohortTimeout = des::kMillisecond;
        cfg.laneSample = kLaneSample;
        specweb::WorkloadGenerator gen(*db_, seed * 31 + 7);
        // Drivers hold references into steps_: no reallocation.
        steps_.reserve(std::size(kRates));
        for (size_t k = 0; k < std::size(kRates); ++k) {
            Step &st = steps_.emplace_back();
            clock.time("host.setup.construct_s", [&] {
                st.rig = std::make_unique<ServerRig>(
                    v, cfg, std::make_unique<core::BankingService>(*db_),
                    traced, Ledger(validateBanking, kLimit, true));
            });
            std::vector<std::pair<uint64_t, uint64_t>> pool;
            clock.time("host.setup.sessions_s", [&] {
                pool = st.rig->server->sessions().populate(kSessions, kUsers);
            });
            clock.time("host.setup.generate_s", [&] {
                net::ArrivalConfig acfg;
                acfg.kind = net::ArrivalKind::Poisson;
                acfg.rate = kRates[k];
                acfg.seed = seed * 1000003 + k;
                net::ArrivalProcess arrivals(acfg);
                des::Time t = 0;
                st.arrivals.reserve(kPerStep);
                for (uint64_t i = 0; i < kPerStep; ++i) {
                    t += arrivals.nextGap();
                    const specweb::RequestType type = browsingType(gen);
                    const auto &[sid, user] = pool[i % pool.size()];
                    OpenLoopDriver::Arrival a;
                    a.due = t;
                    a.raw = gen.generate(type, user, sid).raw;
                    a.type = static_cast<uint32_t>(type);
                    st.rig->ledger.expect(static_cast<uint8_t>(type), t);
                    st.arrivals.push_back(std::move(a));
                }
            });
            ServerRig &rig = *st.rig;
            st.driver = std::make_unique<OpenLoopDriver>(
                rig.queue, st.arrivals,
                [&rig](const OpenLoopDriver::Arrival &a, uint64_t id) {
                    SpanScope span(Layer::Inject, id);
                    return rig.server->injectRequest(a.raw, id);
                });
        }
    }

    void run() override
    {
        for (Step &st : steps_) {
            st.driver->start();
            st.rig->queue.run();
        }
    }

    void finish(RepResult &r) override
    {
        double max_rate = 0.0;
        for (size_t k = 0; k < steps_.size(); ++k) {
            Step &st = steps_[k];
            r.attempted += kPerStep;
            const SimAgg a = st.rig->aggregate();
            checkServer(st.rig->server->stats(), r,
                        "step " + std::to_string(k));
            r.failed += checkLedger(st.rig->ledger, a, r);
            r.responses += a.responses;
            r.warps += a.warps;
            r.events += a.events;
            r.callbackSeconds += st.rig->ledger.callbackSeconds;
            r.digest += st.rig->ledger.digest * (2 * k + 1);
            // A step is sustained when its p99 meets the limit and the
            // backlog drains within the limit after the last arrival.
            const des::Time drain =
                st.rig->queue.now() - st.arrivals.back().due;
            if (st.rig->ledger.latencyMs.percentile(99) <=
                    des::toMillis(kLimit) &&
                drain <= kLimit && st.rig->ledger.unanswered() == 0)
                max_rate = std::max(max_rate, kRates[k]);
        }
        const Step &head = steps_[kHeadline];
        const SimAgg a = head.rig->aggregate();
        r.simEndToEnd =
            endToEndMetrics(a, head.rig->ledger, max_rate,
                            r.attempted, r.failed);
        r.simLayers = layerMetrics(a, head.rig->ledger, Extras{});
    }

  private:
    struct Step
    {
        std::unique_ptr<ServerRig> rig;
        std::vector<OpenLoopDriver::Arrival> arrivals;
        std::unique_ptr<OpenLoopDriver> driver;
    };

    std::unique_ptr<backend::BankDb> db_;
    std::vector<Step> steps_;
};

/**
 * A 4-device Titan B fleet, session-hash balancing, flash-crowd
 * arrivals, 5% journaled cross-shard transfers, adaptive batching and
 * fusion on.
 */
class FleetFlashXShard : public Workload
{
  public:
    static constexpr uint32_t kDevices = 4;
    static constexpr uint64_t kUsers = 4000;
    static constexpr uint32_t kCohortSize = 1024;
    static constexpr uint64_t kRequests = 24576;
    static constexpr double kBaseRate = 600e3;
    static constexpr double kFlashMult = 4.0;
    static constexpr double kCrossFraction = 0.05;
    static constexpr des::Time kLimit = 10 * des::kMillisecond;

    void setup(uint64_t seed, bool traced, SetupClock &clock) override
    {
        (void)traced; // Fleet builds its own services: no decorator.
        const platform::TitanVariant v = platform::titanB();
        power_ = v.power;
        core::RhythmConfig cfg = v.server;
        cfg.cohortSize = kCohortSize;
        cfg.cohortContexts = 16;
        cfg.cohortTimeout = des::kMillisecond;
        cfg.laneSample = kLaneSample;
        cfg.adaptiveBatching = true;
        // Admission sheds would be failed requests; this workload
        // measures formation under burst, not load shedding.
        cfg.adaptiveAdmission = false;
        cfg.fusionEnabled = true;
        core::FleetConfig fc;
        fc.devices = kDevices;
        fc.balance = core::BalanceMode::SessionHash;
        fc.shardMapSeed = seed ^ 0x5eed5eedull;
        fc.recovery = true;
        // Fleet builds every shard's BankDb: that is the DB population.
        clock.time("host.setup.db_populate_s", [&] {
            fleet_ = std::make_unique<core::Fleet>(queue_, v.device, cfg, fc,
                                                   kUsers, seed);
        });
        clock.time("host.setup.construct_s", [&] {
            frontDb_ = std::make_unique<backend::BankDb>(kUsers, seed);
            fleet_->setResponseCallback([this](uint64_t id,
                                               std::string_view response,
                                               des::Time lat) {
                ledger_.onResponse(id, response, lat, queue_.now());
            });
        });
        std::vector<std::pair<uint64_t, uint64_t>> flat;
        clock.time("host.setup.sessions_s", [&] {
            const auto &pools =
                fleet_->populateSessions(8192 / kDevices, kUsers);
            // Round-robin interleave so consecutive arrivals spread
            // over the whole fleet.
            size_t longest = 0;
            for (const auto &p : pools)
                longest = std::max(longest, p.size());
            for (size_t k = 0; k < longest; ++k)
                for (const auto &p : pools)
                    if (k < p.size())
                        flat.push_back(p[k]);
        });
        clock.time("host.setup.generate_s", [&] {
            specweb::WorkloadGenerator gen(*frontDb_, seed * 31 + 7);
            net::ArrivalConfig acfg;
            acfg.kind = net::ArrivalKind::Flash;
            acfg.rate = kBaseRate;
            acfg.seed = seed * 1000003 + 11;
            acfg.flashStartSec = flashStart();
            acfg.flashDurationSec = flashDuration();
            acfg.flashMultiplier = kFlashMult;
            net::ArrivalProcess arrivals(acfg);
            Rng cross_rng(seed * 7919 + 3);
            des::Time t = 0;
            arrivals_.reserve(kRequests);
            for (uint64_t i = 0; i < kRequests; ++i) {
                t += arrivals.nextGap();
                const specweb::RequestType type = browsingType(gen);
                const auto &[sid, user] = flat[i % flat.size()];
                OpenLoopDriver::Arrival a;
                a.due = t;
                a.raw = gen.generate(type, user, sid).raw;
                a.user = user;
                a.type = static_cast<uint32_t>(type);
                if (cross_rng.nextBool(kCrossFraction)) {
                    a.cross = true;
                    a.payee = gen.sampleUser();
                    a.cents = 100 + static_cast<int64_t>(
                                        cross_rng.nextBounded(32)) * 25;
                    ++crossIssued_;
                }
                ledger_.expect(static_cast<uint8_t>(type), t);
                arrivals_.push_back(std::move(a));
            }
        });
        driver_ = std::make_unique<OpenLoopDriver>(
            queue_, arrivals_,
            [this](const OpenLoopDriver::Arrival &a, uint64_t id) {
                bool ok = false;
                {
                    SpanScope span(Layer::FleetInject, id);
                    ok = fleet_->injectRequest(a.raw, id, a.user, a.type);
                }
                // The transfer rides the arrival's first attempt only.
                if (a.cross && !crossDone_[id - 1]) {
                    crossDone_[id - 1] = 1;
                    SpanScope span(Layer::CrossShard, id);
                    fleet_->beginCrossShardTransfer(a.user, a.payee, a.cents);
                }
                return ok;
            });
        crossDone_.assign(kRequests, 0);
    }

    void prepareChecks() override { moneyBefore_ = money(); }

    void run() override
    {
        driver_->start();
        queue_.run();
    }

    void finish(RepResult &r) override
    {
        SimAgg a;
        addQueue(a, queue_);
        Extras x;
        uint64_t max_resp = 0;
        r.attempted = kRequests + crossIssued_;
        for (uint32_t i = 0; i < kDevices; ++i) {
            core::RhythmServer &server = fleet_->server(i);
            addPair(a, server, fleet_->device(i), a.simSeconds, power_,
                    kDevices);
            max_resp = std::max(max_resp, server.stats().responsesCompleted);
            checkServer(server.stats(), r, "device " + std::to_string(i));
            if (const backend::RecoverableBackend *rb = fleet_->recovery(i)) {
                x.journalRecords += rb->stats().journaledRecords;
                x.checkpoints += rb->stats().checkpoints;
            }
        }
        const Ledger &l = ledger_;
        r.failed = checkLedger(l, a, r);
        const core::Fleet::Stats &fs = fleet_->stats();
        x.crossStarted = fs.crossStarted;
        x.crossCompleted = fs.crossCompleted;
        x.crossRejected = fs.crossRejected;
        const uint64_t cross_lost =
            fs.crossStarted - fs.crossCompleted - fs.crossRejected;
        x.imbalance = ratio(static_cast<double>(max_resp) * kDevices,
                            static_cast<double>(a.responses));
        if (fs.crossStarted != crossIssued_ || cross_lost)
            failRep(r, "cross-shard transfers incomplete");
        if (money() != moneyBefore_)
            failRep(r, "money not conserved across shards");

        // Highest offered rate of the flash profile whose requests met
        // the latency limit at p99: the flash window's peak rate, else
        // the base rate outside it.
        Histogram base, flash;
        const des::Time f0 = des::fromSeconds(flashStart());
        const des::Time f1 = des::fromSeconds(flashStart() + flashDuration());
        for (uint64_t id = 1; id <= l.expected(); ++id) {
            const des::Time due = l.due(id);
            (due >= f0 && due < f1 ? flash : base).add(l.latenciesMs()[id - 1]);
        }
        const double lim = des::toMillis(kLimit);
        double max_rate = 0.0;
        if (base.percentile(99) <= lim)
            max_rate = kBaseRate;
        if (flash.percentile(99) <= lim)
            max_rate = kBaseRate * kFlashMult;

        r.simEndToEnd = endToEndMetrics(a, l, max_rate, r.attempted, r.failed);
        r.simLayers = layerMetrics(a, l, x);
        fillTotals(r, a, l);
    }

  private:
    /** The flash window opens a third of the way into the base-rate
     *  arrival span and lasts a sixth of it. */
    static double flashStart()
    {
        return static_cast<double>(kRequests) / kBaseRate / 3.0;
    }
    static double flashDuration() { return flashStart() / 2.0; }

    /** Sum over every shard's DB of balances plus bill payments made
     *  (a bill payment moves money out of a balance into a payment). */
    int64_t money()
    {
        int64_t total = 0;
        for (uint32_t i = 0; i < kDevices; ++i) {
            const backend::BankDb &db = fleet_->db(i);
            for (uint64_t u = 1; u <= db.numUsers(); ++u) {
                for (const backend::Account *acct : db.accounts(u))
                    total += acct->balanceCents;
                for (const backend::BillPayment *bp : db.billPayments(
                         u, 0, std::numeric_limits<uint32_t>::max()))
                    total += bp->amountCents;
            }
        }
        return total;
    }

    des::EventQueue queue_;
    std::unique_ptr<core::Fleet> fleet_;
    std::unique_ptr<backend::BankDb> frontDb_;
    platform::TitanPowerModel power_;
    Ledger ledger_{validateBanking, kLimit, true};
    std::vector<OpenLoopDriver::Arrival> arrivals_;
    std::vector<uint8_t> crossDone_;
    std::unique_ptr<OpenLoopDriver> driver_;
    uint64_t crossIssued_ = 0;
    int64_t moneyBefore_ = 0;
};

/** The Chat service on Titan B, closed loop. */
class ChatClosed : public ClosedLoop
{
  public:
    static constexpr uint32_t kRooms = 256;
    static constexpr uint32_t kCohortSize = 4096;
    static constexpr uint64_t kRequests = 40ull * kCohortSize;
    static constexpr des::Time kLimit = 50 * des::kMillisecond;

    void setup(uint64_t seed, bool traced, SetupClock &clock) override
    {
        clock.time("host.setup.db_populate_s", [&] {
            store_ = std::make_unique<chat::RoomStore>(kRooms, 40, seed);
        });
        clock.time("host.setup.construct_s", [&] {
            rig_ = std::make_unique<ServerRig>(
                platform::titanB(), titanBConfig(kCohortSize),
                std::make_unique<chat::ChatService>(*store_), traced,
                Ledger(validateChat, kLimit, false));
        });
        clock.time("host.setup.generate_s", [&] {
            chat::ChatGenerator gen(*store_, seed * 13 + 5);
            raws_.reserve(kRequests);
            for (uint64_t i = 0; i < kRequests; ++i) {
                chat::PageType type = chat::PageType::Poll;
                raws_.push_back(gen.next(type));
                rig_->ledger.expect(static_cast<uint8_t>(type), 0);
            }
        });
    }

  private:
    std::unique_ptr<chat::RoomStore> store_;
};

std::unique_ptr<Workload>
makeWorkload(std::string_view name)
{
    if (name == "closed-titanB")
        return std::make_unique<ClosedTitanB>();
    if (name == "open-titanA-bigdb")
        return std::make_unique<OpenTitanABigDb>();
    if (name == "fleet-flash-xshard")
        return std::make_unique<FleetFlashXShard>();
    if (name == "chat-closed")
        return std::make_unique<ChatClosed>();
    return nullptr;
}

} // namespace

bool
sameSimulation(const RepResult &a, const RepResult &b)
{
    auto same = [](const std::vector<Metric> &x, const std::vector<Metric> &y) {
        if (x.size() != y.size())
            return false;
        for (size_t i = 0; i < x.size(); ++i)
            if (x[i].name != y[i].name || x[i].value != y[i].value)
                return false;
        return true;
    };
    return a.digest == b.digest && a.attempted == b.attempted &&
           a.failed == b.failed && same(a.simEndToEnd, b.simEndToEnd) &&
           same(a.simLayers, b.simLayers);
}

const std::vector<std::string_view> &
workloadNames()
{
    static const std::vector<std::string_view> names = {
        "closed-titanB", "open-titanA-bigdb", "fleet-flash-xshard",
        "chat-closed"};
    return names;
}

unsigned
workloadThreads(std::string_view workload)
{
    // closed-titanB is the one workload where warp simulation dominates,
    // so it alone runs the execution engine on a worker pool.
    if (workload == "closed-titanB")
        return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    return 1;
}

RepResult
runRep(std::string_view workload, uint64_t seed, bool traced,
       const std::string &spans_path)
{
    RepResult r;
    r.traced = traced;
    std::unique_ptr<Workload> w = makeWorkload(workload);
    if (!w) {
        failRep(r, "unknown workload");
        return r;
    }
    SetupClock clock(r.setupLayers);
    const Clock::time_point t0 = Clock::now();
    w->setup(seed, traced, clock);
    r.setupSeconds = secondsSince(t0);
    w->prepareChecks();

    clearSpans();
    setSpansEnabled(traced);
    const Clock::time_point t1 = Clock::now();
    {
        SpanScope root(Layer::Run, seed);
        w->run();
    }
    r.runSeconds = secondsSince(t1);
    setSpansEnabled(false);
    if (traced) {
        r.spans = summarizeSpans();
        if (!spans_path.empty() && !writeSpans(spans_path))
            failRep(r, "cannot write span file " + spans_path);
        clearSpans();
    }
    w->finish(r);
    return r;
}

} // namespace perfbench
