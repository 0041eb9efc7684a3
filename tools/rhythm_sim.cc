/**
 * @file
 * rhythm_sim: the configurable simulation driver.
 *
 * Runs either shipped workload (banking / search) on any platform
 * configuration — Titan A/B/C presets or fully custom device knobs —
 * and prints a consolidated report: throughput, latency distribution,
 * device/PCIe utilization, SIMD efficiency, power and requests/Joule.
 *
 * Examples:
 *   rhythm_sim --workload=banking --platform=titanB
 *   rhythm_sim --workload=banking --platform=titanA --pcie-gbs=24
 *   rhythm_sim --workload=search --cohort-size=2048 --cohorts=16
 *   rhythm_sim --workload=banking --type=logout --no-padding
 */

#include <fstream>
#include <iostream>

#include "backend/bankdb.hh"
#include "backend/recovery.hh"
#include "bench/common.hh"
#include "chat/store.hh"
#include "chat/service.hh"
#include "fault/device_injector.hh"
#include "fault/plan.hh"
#include "obs/obs.hh"
#include "platform/titan.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "specweb/workload.hh"
#include "tools/rhythm_sim_flags.hh"
#include "util/flags.hh"
#include "util/hash.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace {

using namespace rhythm;

/**
 * Prints the fault/degradation report section. Only called when a fault
 * plan or a degradation knob is armed, so default runs keep the exact
 * seed output.
 */
void
faultReport(const core::RhythmStats &stats, const fault::FaultPlan *plan,
            const backend::RecoverableBackend *recovery)
{
    TableWriter t({"robustness metric", "value"});
    t.addRow({"requests shed (503)", withCommas(stats.requestsShed)});
    t.addRow({"reader drops", withCommas(stats.readerDrops)});
    t.addRow({"backend retries", withCommas(stats.backendRetries)});
    t.addRow({"backend failed lanes",
              withCommas(stats.backendFailedLanes)});
    t.addRow({"deadline misses", withCommas(stats.deadlineMisses)});
    t.addRow({"client disconnects", withCommas(stats.clientDisconnects)});
    t.addRow({"degraded-mode time",
              formatDouble(des::toMillis(stats.degradedTime), 2) +
                  " ms"});
    t.addRow({"kernel hangs injected", withCommas(stats.kernelHangs)});
    t.addRow({"watchdog fires", withCommas(stats.watchdogFires)});
    t.addRow({"hedge wins / cancelled",
              withCommas(stats.hedgeWins) + " / " +
                  withCommas(stats.hedgeCancelled)});
    t.addRow({"hedge backend replays",
              withCommas(stats.hedgeReplayedCalls)});
    if (recovery) {
        const backend::RecoveryStats &rs = recovery->stats();
        t.addRow({"backend crashes", withCommas(rs.crashes)});
        t.addRow({"journaled records", withCommas(rs.journaledRecords)});
        t.addRow({"journal replays", withCommas(rs.replayedRecords)});
        t.addRow({"torn records dropped", withCommas(rs.tornRecords)});
        t.addRow({"idempotency memo hits", withCommas(rs.memoHits)});
        t.addRow({"checkpoints", withCommas(rs.checkpoints)});
    }
    if (plan) {
        uint64_t injected = plan->totalInjected();
        // Server-side consultations (BackendFail/BackendSlow/
        // ClientDisconnect) are also counted in stats.faultsInjected;
        // the plan total covers the device-side sites too.
        t.addRow({"faults injected", withCommas(injected)});
    }
    t.printAscii(std::cout);
}

void
report(const core::RhythmServer &server, const simt::Device &device,
       const des::EventQueue &queue, const platform::TitanPowerModel &pm,
       const fault::FaultPlan *plan = nullptr, bool robust = false,
       bench::Reporter *rep = nullptr,
       const backend::RecoverableBackend *recovery = nullptr)
{
    const core::RhythmStats &stats = server.stats();
    const simt::Device::Stats dstats = device.stats();
    const double elapsed = des::toSeconds(queue.now());
    const double throughput =
        elapsed > 0 ? static_cast<double>(stats.responsesCompleted) /
                          elapsed
                    : 0.0;
    const platform::PowerDraw draw =
        platform::powerDraw(pm, server, device, elapsed);

    TableWriter t({"metric", "value"});
    t.addRow({"requests completed",
              withCommas(stats.responsesCompleted)});
    t.addRow({"error responses", withCommas(stats.errorResponses)});
    t.addRow({"simulated time", formatDouble(elapsed * 1e3, 2) + " ms"});
    t.addRow({"throughput", humanCount(throughput) + "reqs/s"});
    t.addRow({"latency mean / p50 / p99",
              formatDouble(stats.latencyMs.mean(), 2) + " / " +
                  formatDouble(stats.latencyMs.median(), 2) + " / " +
                  formatDouble(stats.latencyMs.percentile(99), 2) +
                  " ms"});
    t.addRow({"latency breakdown (mean)",
              formatDouble(stats.formationMs.mean(), 2) +
                  " ms formation + " +
                  formatDouble(stats.pipelineMs.mean(), 2) +
                  " ms pipeline"});
    t.addRow({"cohorts launched", withCommas(stats.cohortsLaunched)});
    t.addRow({"cohort timeouts", withCommas(stats.cohortTimeouts)});
    t.addRow({"device utilization",
              formatDouble(draw.deviceUtilization, 3)});
    t.addRow({"DRAM bandwidth utilization",
              formatDouble(std::min(1.0, draw.memoryUtilization), 3)});
    t.addRow({"PCIe engine utilization",
              formatDouble(draw.copyUtilization, 3)});
    t.addRow({"process SIMD efficiency",
              formatDouble(draw.simdEfficiency, 3)});
    t.addRow({"PCIe bytes",
              humanBytes(static_cast<double>(dstats.bytesToDevice +
                                             dstats.bytesToHost))});
    t.addRow({"response padding",
              humanBytes(static_cast<double>(stats.paddingBytes))});
    t.addRow({"host fallback requests",
              withCommas(stats.hostFallbackRequests)});
    t.addRow({"est. dynamic power",
              formatDouble(draw.dynamicWatts, 1) + " W"});
    t.addRow({"est. reqs/Joule (wall)",
              formatDouble(
                  throughput / (pm.idleWatts + draw.dynamicWatts), 0)});
    t.addRow({"device memory pools",
              humanBytes(static_cast<double>(
                  server.memoryFootprintBytes()))});
    t.printAscii(std::cout);
    if (plan || robust)
        faultReport(stats, plan, recovery);

    // Deadline/adaptive section, printed (and emitted as metrics) only
    // when per-type deadline tracking is configured — default runs stay
    // byte-identical to the seed output.
    const core::RhythmConfig &scfg = server.config();
    bool deadlines_tracked = scfg.adaptiveBatching;
    for (const des::Time d : scfg.typeDeadlines)
        deadlines_tracked = deadlines_tracked || d != 0;
    if (deadlines_tracked) {
        const uint64_t att_total =
            stats.typedDeadlineHits + stats.typedDeadlineMisses;
        const double attainment =
            att_total ? static_cast<double>(stats.typedDeadlineHits) /
                            static_cast<double>(att_total)
                      : 0.0;
        TableWriter at({"deadline-aware batching", "value"});
        at.addRow({"deadline hits / misses",
                   withCommas(stats.typedDeadlineHits) + " / " +
                       withCommas(stats.typedDeadlineMisses)});
        at.addRow({"attainment", formatDouble(attainment, 4)});
        at.addRow({"early dispatches",
                   withCommas(stats.adaptiveEarlyDispatches)});
        at.addRow({"preemptions", withCommas(stats.adaptivePreemptions)});
        at.addRow({"admission sheds",
                   withCommas(stats.adaptiveAdmissionSheds)});
        at.printAscii(std::cout);
        if (rep) {
            rep->metric("deadline.hits",
                        static_cast<double>(stats.typedDeadlineHits));
            rep->metric("deadline.misses",
                        static_cast<double>(stats.typedDeadlineMisses));
            rep->metric("deadline.attainment", attainment);
            rep->metric("adaptive.early_dispatches",
                        static_cast<double>(
                            stats.adaptiveEarlyDispatches));
            rep->metric("adaptive.preemptions",
                        static_cast<double>(stats.adaptivePreemptions));
            rep->metric("adaptive.admission_sheds",
                        static_cast<double>(
                            stats.adaptiveAdmissionSheds));
        }
    }

    // Cohort-fusion section, printed (and emitted as metrics) only with
    // --fusion=on — default runs stay byte-identical to the seed
    // output.
    if (scfg.fusionEnabled) {
        TableWriter ft({"cohort fusion", "value"});
        ft.addRow({"fused launches", withCommas(stats.fusedLaunches)});
        ft.addRow({"cohorts fused", withCommas(stats.fusedCohorts)});
        ft.addRow({"warps saved", withCommas(stats.fusionSavedWarps)});
        ft.addRow({"padded lanes", withCommas(stats.paddedLanes)});
        ft.addRow({"process SIMD efficiency",
                   formatDouble(draw.simdEfficiency, 4)});
        ft.printAscii(std::cout);
        if (rep) {
            rep->metric("fusion.fused_launches",
                        static_cast<double>(stats.fusedLaunches));
            rep->metric("fusion.fused_cohorts",
                        static_cast<double>(stats.fusedCohorts));
            rep->metric("fusion.saved_warps",
                        static_cast<double>(stats.fusionSavedWarps));
            rep->metric("fusion.padded_lanes",
                        static_cast<double>(stats.paddedLanes));
            rep->metric("fusion.simd_efficiency", draw.simdEfficiency);
        }
    }

    // Human-readable cache summary (stdout only: the --json document
    // must stay byte-identical to the uncached reference, so these
    // numbers are deliberately NOT metrics — bench_sim_speedup emits
    // them in its own JSON instead).
    if (const simt::ProfileCache *cache = device.engine().profileCache()) {
        const simt::ProfileCache::Stats &cs = cache->stats();
        TableWriter ct({"profile cache", "value"});
        ct.addRow({"cross-launch hits", withCommas(cs.hits)});
        ct.addRow({"intra-launch hits", withCommas(cs.intraHits)});
        ct.addRow({"misses (simulated warps)", withCommas(cs.misses)});
        ct.addRow({"insertions", withCommas(cs.insertions)});
        ct.addRow({"evictions", withCommas(cs.evictions)});
        ct.addRow({"entries", withCommas(cache->size()) + " / " +
                                  withCommas(cache->capacity())});
        ct.addRow({"trace bytes not re-simulated",
                   humanBytes(static_cast<double>(cs.bytesSaved))});
        ct.printAscii(std::cout);
    }

    if (rep) {
        rep->metric("throughput", throughput);
        rep->metric("latency.mean_ms", stats.latencyMs.mean());
        rep->metric("latency.p50_ms", stats.latencyMs.median());
        rep->metric("latency.p99_ms", stats.latencyMs.percentile(99));
        rep->metric("device_utilization", draw.deviceUtilization);
        rep->metric("pcie_utilization", draw.copyUtilization);
        rep->metric("simd_efficiency", draw.simdEfficiency);
        rep->metric("pcie_bytes",
                    static_cast<double>(dstats.bytesToDevice +
                                        dstats.bytesToHost));
        rep->metric("dynamic_watts", draw.dynamicWatts);
        rep->metric("reqs_per_joule_wall",
                    throughput / (pm.idleWatts + draw.dynamicWatts));
        // DES determinism fingerprints: the final clock, the event
        // count and the dispatch-order hash must be identical for any
        // --sim-threads value (the equivalence tests byte-compare the
        // whole document across thread counts). The hash is split into
        // 32-bit halves so each survives the double-typed metric value
        // exactly.
        rep->metric("des.clock_seconds", elapsed);
        rep->metric("des.events",
                    static_cast<double>(queue.dispatched()));
        rep->metric("des.order_hash_hi",
                    static_cast<double>(queue.orderHash() >> 32));
        rep->metric("des.order_hash_lo",
                    static_cast<double>(queue.orderHash() &
                                        0xffffffffull));
        // Per-SM accounting from the execution engine, in canonical SM
        // order — also thread-count-invariant.
        const simt::Engine &engine = device.engine();
        rep->metric("engine.launches",
                    static_cast<double>(engine.launches()));
        rep->metric("engine.warps", static_cast<double>(engine.warps()));
        const auto &sms = engine.smCounters();
        for (size_t s = 0; s < sms.size(); ++s) {
            char prefix[16];
            std::snprintf(prefix, sizeof prefix, "sm.%02zu.", s);
            rep->metric(std::string(prefix) + "warps",
                        static_cast<double>(sms[s].warps));
            rep->metric(std::string(prefix) + "issue_slots",
                        static_cast<double>(sms[s].stats.issueSlots));
            rep->metric(std::string(prefix) + "global_transactions",
                        static_cast<double>(
                            sms[s].stats.globalTransactions));
        }
        // The instrumentation counters/histograms ride along under an
        // "obs." prefix when recording was on for this run. Feature
        // meta-metrics (profile cache, recovery, watchdog, PCIe CRC)
        // are excluded: they differ between feature-on and feature-off
        // runs whose simulated outputs the equivalence gate
        // byte-compares.
        if (obs::global().enabled())
            rep->metricsFrom(
                obs::global().metrics(), "obs.",
                std::span<const std::string_view>(
                    obs::kBaselineExcludedPrefixes));
    }
}

/**
 * Fleet-mode report (DESIGN.md 6k): aggregate goodput plus a
 * per-device section. Every number is simulated state, so the JSON
 * document is byte-identical across --sim-threads exactly like the
 * single-device report. The obs.* ride-along uses the same
 * baseline-excluded span; the flatten rule additionally drops the
 * per-device "dev<i>." namespaces from that gated set.
 */
void
fleetReport(core::Fleet &fleet, const des::EventQueue &queue,
            bench::Reporter *rep)
{
    const double elapsed = des::toSeconds(queue.now());
    const uint64_t responses = fleet.totalResponses();
    const double goodput =
        elapsed > 0 ? static_cast<double>(responses) / elapsed : 0.0;
    const double throughput =
        elapsed > 0 ? static_cast<double>(responses +
                                          fleet.totalErrors()) /
                          elapsed
                    : 0.0;
    const core::Fleet::Stats &fs = fleet.stats();

    TableWriter t({"fleet metric", "value"});
    t.addRow({"devices (alive / total)",
              std::to_string(fleet.aliveCount()) + " / " +
                  std::to_string(fleet.devices())});
    t.addRow({"requests completed", withCommas(responses)});
    t.addRow({"error responses", withCommas(fleet.totalErrors())});
    t.addRow({"requests shed (503)", withCommas(fleet.totalShed())});
    t.addRow({"reader drops", withCommas(fleet.totalReaderDrops())});
    t.addRow({"simulated time", formatDouble(elapsed * 1e3, 2) + " ms"});
    t.addRow({"goodput", humanCount(goodput) + "reqs/s"});
    t.addRow({"cohorts launched", withCommas(fleet.totalCohorts())});
    t.addRow({"cross-shard started / completed / rejected",
              withCommas(fs.crossStarted) + " / " +
                  withCommas(fs.crossCompleted) + " / " +
                  withCommas(fs.crossRejected)});
    if (fs.devicesKilled) {
        t.addRow({"devices killed", withCommas(fs.devicesKilled)});
        t.addRow({"sessions re-sharded",
                  withCommas(fs.sessionsResharded)});
        t.addRow({"cookie rewrites", withCommas(fs.rewrittenCookies)});
    }
    t.printAscii(std::cout);

    TableWriter d({"device", "responses", "errors", "shed", "cohorts",
                   "util", "p99 ms"});
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        const core::RhythmStats &s = fleet.server(i).stats();
        d.addRow({"dev" + std::to_string(i) +
                      (fleet.alive(i) ? "" : " (dead)"),
                  withCommas(s.responsesCompleted),
                  withCommas(s.errorResponses),
                  withCommas(s.requestsShed),
                  withCommas(s.cohortsLaunched),
                  formatDouble(fleet.device(i).kernelUtilization(), 3),
                  formatDouble(s.latencyMs.percentile(99), 2)});
    }
    d.printAscii(std::cout);

    if (!rep)
        return;
    rep->metric("throughput", throughput);
    rep->metric("goodput", goodput);
    rep->metric("fleet.devices", static_cast<double>(fleet.devices()));
    rep->metric("fleet.alive", static_cast<double>(fleet.aliveCount()));
    rep->metric("fleet.accepted",
                static_cast<double>(fleet.totalAccepted()));
    rep->metric("fleet.shed", static_cast<double>(fleet.totalShed()));
    rep->metric("fleet.reader_drops",
                static_cast<double>(fleet.totalReaderDrops()));
    rep->metric("fleet.cohorts",
                static_cast<double>(fleet.totalCohorts()));
    rep->metric("fleet.cross.started",
                static_cast<double>(fs.crossStarted));
    rep->metric("fleet.cross.completed",
                static_cast<double>(fs.crossCompleted));
    rep->metric("fleet.cross.rejected",
                static_cast<double>(fs.crossRejected));
    rep->metric("fleet.devices_killed",
                static_cast<double>(fs.devicesKilled));
    rep->metric("fleet.resharded_sessions",
                static_cast<double>(fs.sessionsResharded));
    rep->metric("fleet.reshard_drops",
                static_cast<double>(fs.reshardDrops));
    rep->metric("fleet.cookie_rewrites",
                static_cast<double>(fs.rewrittenCookies));
    rep->metric("des.clock_seconds", elapsed);
    rep->metric("des.events", static_cast<double>(queue.dispatched()));
    rep->metric("des.order_hash_hi",
                static_cast<double>(queue.orderHash() >> 32));
    rep->metric("des.order_hash_lo",
                static_cast<double>(queue.orderHash() & 0xffffffffull));
    for (uint32_t i = 0; i < fleet.devices(); ++i) {
        char prefix[16];
        std::snprintf(prefix, sizeof prefix, "dev%u.", i);
        const std::string p(prefix);
        const core::RhythmStats &s = fleet.server(i).stats();
        rep->metric(p + "responses",
                    static_cast<double>(s.responsesCompleted));
        rep->metric(p + "errors",
                    static_cast<double>(s.errorResponses));
        rep->metric(p + "shed", static_cast<double>(s.requestsShed));
        rep->metric(p + "reader_drops",
                    static_cast<double>(s.readerDrops));
        rep->metric(p + "cohorts",
                    static_cast<double>(s.cohortsLaunched));
        rep->metric(p + "device_utilization",
                    fleet.device(i).kernelUtilization());
        rep->metric(p + "latency.p99_ms", s.latencyMs.percentile(99));
    }
    if (obs::global().enabled())
        rep->metricsFrom(obs::global().metrics(), "obs.",
                         std::span<const std::string_view>(
                             obs::kBaselineExcludedPrefixes));
}

/**
 * Order-insensitive fingerprint of the full response stream.
 *
 * Each response hashes independently (FNV-1a over the client id, the
 * length and the bytes) and the per-response digests combine with a
 * wrapping sum, so the fingerprint is invariant to completion order
 * but sensitive to any byte of any response. The equivalence gates
 * compare it across --overlap=on/off and --sim-threads values, whose
 * host-side callback order may legitimately differ while the simulated
 * responses must not.
 */
struct ResponseDigest
{
    std::string path; //!< Output file; empty = disabled.
    uint64_t sum = 0;
    uint64_t count = 0;

    void add(uint64_t client_id, std::string_view response)
    {
        util::Fnv1a64 h;
        h.update(client_id);
        h.update(response.size());
        uint64_t word = 0;
        int shift = 0;
        for (const char c : response) {
            word |= static_cast<uint64_t>(
                        static_cast<unsigned char>(c))
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
        sum += h.digest();
        ++count;
    }

    /** Attaches the digest to a server when armed. */
    void attach(core::RhythmServer &server)
    {
        if (path.empty())
            return;
        server.setResponseCallback(
            [this](uint64_t client_id, std::string_view response,
                   des::Time) { add(client_id, response); });
    }

    /** Writes "<hex sum> <count>"; returns false on I/O failure. */
    bool write() const
    {
        if (path.empty())
            return true;
        std::ofstream out(path);
        if (out) {
            char line[48];
            std::snprintf(line, sizeof line, "%016llx %llu\n",
                          static_cast<unsigned long long>(sum),
                          static_cast<unsigned long long>(count));
            out << line;
        }
        if (!out.good()) {
            std::cerr << "error: cannot write --digest-out file: "
                      << path << "\n";
            return false;
        }
        return true;
    }
};

/**
 * Writes the trace, JSON and digest artifacts (no-ops without the
 * flags) and turns observability back off. Returns the process exit
 * code.
 */
int
finish(const bench::Reporter &rep, const std::string &trace_path,
       const ResponseDigest &digest)
{
    int rc = 0;
    if (!digest.write())
        rc = 1;
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (out) {
            obs::global().tracer().writeChromeTrace(out);
            out << "\n";
        }
        if (!out.good()) {
            std::cerr << "error: cannot write --trace-out file: "
                      << trace_path << "\n";
            rc = 1;
        }
    }
    if (!rep.write())
        rc = 1;
    obs::global().disable();
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Parsed (and --sim-threads applied) before any simulation object
    // exists; a bad argument exits 2 here.
    const Flags flags = parseFlagsOrExit(argc, argv, sim::kSimGroups);
    util::setSimThreads(static_cast<unsigned>(flags.u64("sim-threads")));
    const std::string &workload = flags.text("workload");
    const bool recovery_on = flags.on("recovery");
    if (bench::openLoop(flags) && workload != "banking")
        exitUsageError("--arrival supports the banking workload only");
    if (recovery_on && workload != "banking")
        exitUsageError("--recovery supports the banking workload only");
    if (bench::fleetRun(flags) && !bench::openLoop(flags))
        exitUsageError("--devices > 1 requires an open-loop --arrival");
    if (bench::fleetRun(flags) && flags.given("type"))
        exitUsageError("--type isolation is single-device only");
    std::optional<specweb::RequestType> only;
    if (workload == "banking" && flags.given("type")) {
        for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
            if (specweb::typeTable()[i].name == flags.text("type"))
                only = specweb::typeTable()[i].type;
        }
        if (!only)
            exitUsageError("unknown banking type: " + flags.text("type"));
    }

    // ---- Platform ----------------------------------------------------
    const std::string &preset = flags.text("platform");
    platform::TitanVariant variant = preset == "titanA"   ? platform::titanA()
                                     : preset == "titanC" ? platform::titanC()
                                                          : platform::titanB();
    if (flags.given("sms"))
        variant.device.numSms = static_cast<int>(flags.u64("sms"));
    if (flags.given("mem-gbs"))
        variant.device.memBandwidthGBs = flags.real("mem-gbs");
    if (flags.given("pcie-gbs"))
        variant.device.pcieBandwidthGBs = flags.real("pcie-gbs");
    if (flags.given("queues"))
        variant.device.hardwareQueues = static_cast<int>(flags.u64("queues"));
    bench::applyFaults(flags, variant.device);
    bench::applyOverlap(flags, variant.device);

    core::RhythmConfig cfg = variant.server;
    bench::applyOverlap(flags, cfg);
    bench::applyFusion(flags, cfg);
    cfg.cohortSize = static_cast<uint32_t>(flags.u64("cohort-size"));
    // Default to 16 contexts: a mixed workload needs roughly one per
    // request type in flight (isolation runs are fine with fewer).
    cfg.cohortContexts = static_cast<uint32_t>(flags.u64("contexts"));
    cfg.cohortTimeout = des::fromSeconds(flags.real("timeout-ms") / 1e3);
    cfg.laneSample = static_cast<uint32_t>(flags.u64("lane-sample"));
    cfg.transposeBuffers = flags.on("transpose");
    cfg.padResponses = flags.on("padding");
    bench::applyFaults(flags, cfg);

    const fault::FaultConfig fcfg = bench::faultConfig(flags);
    const bool faults_on = !fcfg.allQuiet();
    const bool robust = faults_on || cfg.backendRetryBudget ||
                        cfg.requestDeadline || cfg.shedBacklogLimit ||
                        cfg.shedLatencySlo || cfg.watchdogTimeout ||
                        recovery_on;

    const uint64_t seed = flags.u64("seed");
    const uint32_t cohorts = static_cast<uint32_t>(flags.u64("cohorts"));
    const uint64_t total =
        static_cast<uint64_t>(cohorts) * cfg.cohortSize;

    // ---- Observability -----------------------------------------------
    bench::Reporter json_report("rhythm_sim", flags.text("json"));
    const std::string &trace_path = flags.text("trace-out");
    const bool observe = json_report.enabled() || !trace_path.empty();
    for (const FlagGroup *group : sim::kSimGroups)
        if (group != &bench::kFaultFlags)
            json_report.config(flags, *group);

    ResponseDigest digest;
    digest.path = flags.text("digest-out");

    std::cout << "rhythm_sim: " << workload << " on " << preset << " ("
              << variant.device.numSms << " SMs, "
              << variant.device.memBandwidthGBs << " GB/s, " << cohorts
              << " cohorts x " << cfg.cohortSize << ")\n";

    // ---- Workloads -----------------------------------------------------
    if (workload == "banking") {
        const uint64_t users = flags.u64("users");
        backend::BankDb db(users, seed);
        specweb::WorkloadGenerator gen(db, seed * 31 + 7);

        if (only && (*only == specweb::RequestType::Login ||
                     *only == specweb::RequestType::Logout))
            cfg.sessionNodesPerBucket = static_cast<uint32_t>(
                3 * total / std::min<uint64_t>(users, cfg.cohortSize) + 16);

        // ---- Multi-device fleet (DESIGN.md 6k) -----------------------
        // Sharded serving needs open-loop arrivals (a closed-loop pull
        // source cannot be routed) and the mixed type distribution.
        // --devices=1 deliberately takes the single-device path below,
        // so the default output stays byte-identical to the seed tree.
        if (bench::fleetRun(flags)) {
            des::EventQueue queue;
            if (observe)
                obs::global().enable(queue);
            core::FleetConfig fc = bench::fleetConfig(flags);
            fc.recovery = recovery_on;
            fc.checkpointInterval = flags.u64("checkpoint-interval");
            // The batching policy resolves per-type deadline slugs
            // against a service instance; a front-end throwaway works
            // because every shard shares this one RhythmConfig.
            core::BankingService slug_service(db);
            bench::applyBatching(flags, cfg, slug_service);
            core::Fleet fleet(queue, variant.device, cfg, fc, users,
                              seed);
            specweb::StaticContent content(32, seed);
            fleet.setStaticContent(&content);
            if (!digest.path.empty())
                fleet.setResponseCallback(
                    [&digest](uint64_t client_id,
                              std::string_view response, des::Time) {
                        digest.add(client_id, response);
                    });
            fault::FaultPlan plan(fcfg);
            for (uint32_t i = 0; i < fleet.devices() && faults_on; ++i) {
                fleet.server(i).setFaultPlan(&plan);
                fault::installDeviceFaults(fleet.device(i), plan, queue);
            }

            const uint64_t per_shard = std::max<uint64_t>(
                std::min<uint64_t>(total, 8192) / fc.devices, 1);
            const auto &pools =
                fleet.populateSessions(per_shard, users);
            // Round-robin interleave of the per-shard pools so
            // consecutive arrivals spread across the whole fleet.
            std::vector<std::pair<uint64_t, uint64_t>> flat;
            size_t longest = 0;
            for (const auto &p : pools)
                longest = std::max(longest, p.size());
            for (size_t k = 0; k < longest; ++k)
                for (const auto &p : pools)
                    if (k < p.size())
                        flat.push_back(p[k]);
            if (flat.empty())
                exitUsageError("no sessions could be populated");

            // Every cross_every-th arrival starts a transfer; the clamp
            // keeps the cast defined for tiny fractions.
            const double cross = flags.real("cross-shard");
            const uint64_t cross_every =
                cross > 0 ? std::max<uint64_t>(
                                1, static_cast<uint64_t>(std::min(
                                       1.0 / cross + 0.5, 1e18)))
                          : 0;

            uint64_t issued = 0;
            std::optional<net::ArrivalProcess> arrivals;
            std::function<void()> arrive;
            arrivals.emplace(bench::arrivalConfig(flags));
            arrive = [&]() {
                if (issued >= total)
                    return;
                specweb::RequestType type;
                do {
                    type = gen.sampleType();
                } while (type == specweb::RequestType::Login ||
                         type == specweb::RequestType::Logout);
                const auto &[sid, user] = flat[issued % flat.size()];
                specweb::GeneratedRequest req =
                    gen.generate(type, user, sid);
                ++issued;
                fleet.injectRequest(std::move(req.raw), issued, user,
                                    static_cast<uint32_t>(type));
                if (cross_every && issued % cross_every == 0)
                    fleet.beginCrossShardTransfer(
                        gen.sampleUser(), gen.sampleUser(),
                        100 + static_cast<int64_t>(issued % 32) * 25);
                if (issued < total)
                    queue.scheduleAfter(arrivals->nextGap(), arrive);
            };
            queue.scheduleAfter(arrivals->nextGap(), arrive);
            queue.run();
            fleetReport(fleet, queue, &json_report);
            return finish(json_report, trace_path, digest);
        }

        des::EventQueue queue;
        if (observe)
            obs::global().enable(queue);
        simt::Device device(queue, variant.device);
        core::BankingService service(db);
        bench::applyBatching(flags, cfg, service);
        core::RhythmServer server(queue, device, service, cfg);
        specweb::StaticContent content(32, seed);
        server.setStaticContent(&content);
        digest.attach(server);
        fault::FaultPlan plan(fcfg);
        if (faults_on) {
            server.setFaultPlan(&plan);
            fault::installDeviceFaults(device, plan, queue);
        }

        // Logout consumes one session per request; other types reuse a
        // pool.
        auto sessions = server.sessions().populate(
            only && *only == specweb::RequestType::Logout
                ? total
                : std::min<uint64_t>(total, 8192),
            users);
        // Recovery wraps the populated baseline: the constructor takes
        // the first checkpoint, so it must run after populate().
        std::unique_ptr<backend::RecoverableBackend> recoverable;
        if (recovery_on) {
            backend::RecoveryConfig rcfg;
            rcfg.checkpointInterval = flags.u64("checkpoint-interval");
            recoverable = std::make_unique<backend::RecoverableBackend>(
                service.backendService(), db, rcfg);
            if (faults_on)
                recoverable->setFaultPlan(
                    &plan, [&queue]() { return queue.now(); });
            core::attachSessionRecovery(*recoverable, server.sessions());
            service.setRecovery(recoverable.get());
        }
        uint64_t issued = 0;
        auto next_request = [&]() -> std::string {
            specweb::GeneratedRequest req;
            specweb::RequestType type;
            if (only) {
                type = *only;
            } else {
                // Mixed mode models the browsing steady state: logins
                // and logouts churn the reusable session pool, so run
                // them isolated via --type instead.
                do {
                    type = gen.sampleType();
                } while (type == specweb::RequestType::Login ||
                         type == specweb::RequestType::Logout);
            }
            if (type == specweb::RequestType::Login) {
                req = gen.generate(type, gen.sampleUser(), 0);
            } else {
                const auto &[sid, user] =
                    sessions[issued % sessions.size()];
                req = gen.generate(type, user, sid);
            }
            ++issued;
            return std::move(req.raw);
        };
        // Closed loop (the historical pull source) or an open-loop
        // arrival process pushing on its own schedule; both must
        // outlive queue.run().
        std::optional<net::ArrivalProcess> arrivals;
        std::function<void()> arrive;
        if (!bench::openLoop(flags)) {
            server.start([&]() -> std::optional<std::string> {
                if (issued >= total)
                    return std::nullopt;
                return next_request();
            });
        } else {
            arrivals.emplace(bench::arrivalConfig(flags));
            arrive = [&]() {
                if (issued >= total)
                    return;
                const uint64_t client_id = issued + 1;
                // injectRequest == false is a reader drop: an
                // open-loop client does not retry (counted in
                // RhythmStats::readerDrops).
                server.injectRequest(next_request(), client_id);
                if (issued < total)
                    queue.scheduleAfter(arrivals->nextGap(), arrive);
            };
            queue.scheduleAfter(arrivals->nextGap(), arrive);
        }
        queue.run();
        report(server, device, queue, variant.power,
               faults_on ? &plan : nullptr, robust, &json_report,
               recoverable.get());
        return finish(json_report, trace_path, digest);
    }

    // Chat and search: one device serving a closed loop that pulls
    // requests from next() until the run's total is issued.
    const auto serve_closed_loop =
        [&](core::Service &service,
            const std::function<std::string()> &next) {
            des::EventQueue queue;
            if (observe)
                obs::global().enable(queue);
            simt::Device device(queue, variant.device);
            bench::applyBatching(flags, cfg, service);
            core::RhythmServer server(queue, device, service, cfg);
            digest.attach(server);
            fault::FaultPlan plan(fcfg);
            if (faults_on) {
                server.setFaultPlan(&plan);
                fault::installDeviceFaults(device, plan, queue);
            }

            uint64_t issued = 0;
            server.start([&]() -> std::optional<std::string> {
                if (issued >= total)
                    return std::nullopt;
                ++issued;
                return next();
            });
            queue.run();
            report(server, device, queue, variant.power,
                   faults_on ? &plan : nullptr, robust, &json_report);
        };

    if (workload == "chat") {
        chat::RoomStore store(256, 40, seed);
        chat::ChatGenerator gen(store, seed * 13 + 5);
        chat::ChatService service(store);
        serve_closed_loop(service, [&gen]() {
            chat::PageType type;
            return gen.next(type);
        });
        std::cout << "messages posted during run: "
                  << withCommas(store.totalPosted() - 256ull * 40)
                  << "\n";
        return finish(json_report, trace_path, digest);
    }

    // --workload admits only banking, chat and search: this is search.
    const uint32_t docs = static_cast<uint32_t>(flags.u64("docs"));
    search::Corpus corpus(docs, 4096, seed);
    search::InvertedIndex index(corpus);
    search::QueryGenerator gen(corpus, seed * 17 + 3);
    search::SearchService service(index);
    serve_closed_loop(service, [&gen]() { return gen.next().raw; });
    return finish(json_report, trace_path, digest);
}
