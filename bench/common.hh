/**
 * @file
 * Shared helpers for the benchmark harness: paper reference values,
 * uniform printing, the --json Reporter and the command-line flag
 * families. Every bench binary regenerates one table or figure
 * of the paper and prints measured rows next to the paper's reference
 * values so the shape comparison is immediate.
 */

#ifndef RHYTHM_BENCH_COMMON_HH
#define RHYTHM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "des/time.hh"
#include "fault/device_injector.hh"
#include "fault/plan.hh"
#include "net/arrival.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "platform/titan.hh"
#include "rhythm/fleet.hh"
#include "rhythm/server.hh"
#include "simt/device.hh"
#include "util/flags.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace rhythm::bench {

/** Paper Table 3 reference values for one platform row. */
struct PaperTable3Row
{
    const char *name;
    double idleWatts;
    double wallWatts;
    double dynamicWatts;
    double latencyMs;
    double throughputK; //!< KReqs/s
    double rpjWall;
    double rpjDynamic;
};

/** The paper's Table 3 (SPECWeb Banking experimental results). */
inline constexpr PaperTable3Row kPaperTable3[] = {
    {"Core i5 1 worker", 47, 67, 20, 0.016, 75, 972, 3283},
    {"Core i5 4 workers", 47, 98, 51, 0.016, 282, 2447, 4712},
    {"Core i7 4 workers", 45, 147, 102, 0.014, 331, 1901, 2735},
    {"Core i7 8 workers", 45, 156, 111, 0.014, 377, 2042, 2873},
    {"ARM A9 1 worker", 2, 3.4, 1.4, 0.176, 8, 1672, 4061},
    {"ARM A9 2 workers", 2, 4.5, 2.5, 0.176, 16, 2683, 4830},
    {"Titan A", 74, 226, 152, 86, 398, 1469, 2193},
    {"Titan B", 74, 306, 232, 24, 1535, 3329, 4410},
    {"Titan C", 74, 285, 211, 10, 3082, 9070, 12264},
};

/** Prints a bench banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n=================================================="
                 "====================\n"
              << title << "\n"
              << "Reproduces: " << paper_ref << "\n"
              << "=================================================="
                 "====================\n";
}

/** Formats a double with given precision (shorthand). */
inline std::string
fmt(double v, int precision = 2)
{
    return formatDouble(v, precision);
}

/** Formats "measured (paper ref)" in one cell. */
inline std::string
withRef(double measured, double reference, int precision = 2)
{
    return formatDouble(measured, precision) + " (" +
           formatDouble(reference, precision) + ")";
}

/** Lower-cases and underscores a display name into a stable metric key. */
inline std::string
slug(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c >= 'A' && c <= 'Z')
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out.push_back(c);
        else if (c == ' ' || c == '/' || c == '-')
            out.push_back('_');
        // Anything else (punctuation) is dropped.
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** Peak resident set size of this process in KiB (0 if unavailable). */
inline double
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
        return static_cast<double>(usage.ru_maxrss);
#endif
    }
#endif
    return 0.0;
}

/**
 * Machine-readable bench output: every bench binary accepts
 * `--json=<path>` and, when given, emits one JSON document
 *
 *     {"bench": <name>, "config": {...}, "metrics": {...}}
 *
 * with flat dotted metric keys (e.g. "titan_b.throughput"). The schema
 * is shared by all benches and by `rhythm_sim --json`, and is what
 * tools/check_bench.py compares against bench/baselines/ in the CI
 * perf gate — so metric keys are part of a stable interface: renaming
 * one requires regenerating the baselines.
 *
 * Benches that also measure host-side performance opt into a fourth
 * top-level "host" object (enableHostStats): wall-clock since Reporter
 * construction ("host_ms"), peak RSS ("peak_rss_kb") and any values
 * recorded with hostStat(). Host values are machine-dependent, so
 * check_bench.py gates them with a separate, wider tolerance band
 * (--host-tolerance) than the exact deterministic metrics — and the
 * section stays off by default so outputs that CI byte-compares across
 * runs (e.g. rhythm_sim at different --sim-threads) remain identical.
 */
class Reporter
{
  public:
    /**
     * @param bench Stable bench name (matches the binary name).
     * @param path  The --json output file; empty = disabled.
     */
    Reporter(std::string bench, std::string path)
        : bench_(std::move(bench)), path_(std::move(path))
    {
    }

    /** True when --json=<path> was passed. */
    bool enabled() const { return !path_.empty(); }

    /** Records a config key (run parameters, not compared by the gate). */
    void config(std::string key, double value)
    {
        config_.push_back({std::move(key), value, {}, false});
    }
    void config(std::string key, std::string value)
    {
        config_.push_back({std::move(key), 0.0, std::move(value), true});
    }

    /** Records the config entries @p group's rows declare for this run. */
    void config(const Flags &flags, const FlagGroup &group)
    {
        for (auto &[key, value] : flags.config(group)) {
            if (const double *num = std::get_if<double>(&value))
                config(std::string(key), *num);
            else
                config(std::string(key), std::get<std::string>(value));
        }
    }

    /** Records one gate-comparable metric. */
    void metric(std::string key, double value)
    {
        metrics_.push_back({std::move(key), value});
    }

    /**
     * Records every metric of a registry (flattened dotted keys),
     * minus any whose name starts with @p exclude_prefix.
     */
    void metricsFrom(const obs::MetricsRegistry &registry,
                     const std::string &prefix = "",
                     std::string_view exclude_prefix = {})
    {
        for (auto &[key, value] : registry.flatten(exclude_prefix))
            metric(prefix + key, value);
    }

    /** Multi-prefix variant (see MetricsRegistry::flatten overload). */
    void metricsFrom(const obs::MetricsRegistry &registry,
                     const std::string &prefix,
                     std::span<const std::string_view> exclude_prefixes)
    {
        for (auto &[key, value] : registry.flatten(exclude_prefixes))
            metric(prefix + key, value);
    }

    /** Turns on the "host" section of the document (see class docs). */
    void enableHostStats() { hostStats_ = true; }

    /** Records one host-section value (implies enableHostStats). */
    void hostStat(std::string key, double value)
    {
        hostStats_ = true;
        host_.push_back({std::move(key), value});
    }

    /**
     * Writes the JSON document; no-op without --json. Returns false
     * (and prints to stderr) when the file cannot be written.
     */
    bool write() const
    {
        if (path_.empty())
            return true;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << "error: cannot write --json file: " << path_
                      << "\n";
            return false;
        }
        obs::JsonWriter w(out);
        w.beginObject();
        w.key("bench");
        w.value(bench_);
        w.key("config");
        w.beginObject();
        for (const auto &entry : config_) {
            w.key(entry.key);
            if (entry.isString)
                w.value(entry.str);
            else
                w.value(entry.num);
        }
        w.endObject();
        w.key("metrics");
        w.beginObject();
        for (const auto &[key, value] : metrics_) {
            w.key(key);
            w.value(value);
        }
        w.endObject();
        if (hostStats_) {
            w.key("host");
            w.beginObject();
            w.key("host_ms");
            w.value(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
            w.key("peak_rss_kb");
            w.value(peakRssKb());
            for (const auto &[key, value] : host_) {
                w.key(key);
                w.value(value);
            }
            w.endObject();
        }
        w.endObject();
        out << "\n";
        return out.good();
    }

  private:
    struct ConfigEntry
    {
        std::string key;
        double num = 0.0;
        std::string str;
        bool isString = false;
    };

    std::string bench_;
    std::string path_;
    std::vector<ConfigEntry> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, double>> host_;
    bool hostStats_ = false;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

// ---- Command-line flag families ---------------------------------------
//
// rhythm_sim and every bench declare the families they accept (plus any
// flags of their own); the rows below are each flag's single source of
// type, range, default, help line and --json config key. The functions
// after each table overlay the parsed values onto the simulator configs.

/** Flags every binary accepts. --sim-threads changes host wall-clock
 *  only (the engine's determinism contract), so it is never recorded. */
inline constexpr Flag kRunFlagRows[] = {
    Flag::path("json", "write the machine-readable result document"),
    Flag::u64("sim-threads", 1, 256, "1",
              "host worker threads of the execution engine (outputs "
              "are byte-identical for any N)"),
};
inline constexpr FlagGroup kRunFlags{"output and host parallelism",
                                     kRunFlagRows};

/** A flag's value in ms as simulated time. */
inline des::Time
millis(const Flags &f, std::string_view name)
{
    return des::fromSeconds(f.real(name) / 1e3);
}

/** Each fault site's probability flag, in fault_schedule order. */
inline constexpr std::pair<std::string_view, fault::Site> kFaultSites[] = {
    {"backend-fail", fault::Site::BackendFail},
    {"backend-slow", fault::Site::BackendSlow},
    {"pcie-corrupt", fault::Site::PcieCorrupt},
    {"pcie-degrade", fault::Site::PcieDegrade},
    {"stall", fault::Site::StreamStall},
    {"disconnect", fault::Site::ClientDisconnect},
    {"crash", fault::Site::BackendCrash},
    {"torn", fault::Site::JournalTorn},
    {"hang", fault::Site::KernelHang},
};

/** "site=p;..." over the armed fault sites ("quiet" when none is). */
inline std::string
faultSchedule(const fault::FaultConfig &c)
{
    std::string schedule;
    for (const auto &[name, site] : kFaultSites) {
        const double p = c.at(site).probability;
        if (p <= 0.0)
            continue;
        if (!schedule.empty())
            schedule += ";";
        schedule += std::string(name) + "=" + formatDouble(p, 6);
    }
    return schedule.empty() ? std::string("quiet") : schedule;
}

/** The fault schedule the flags describe. */
inline fault::FaultConfig
faultConfig(const Flags &f)
{
    using fault::Site;
    fault::FaultConfig c;
    c.seed = f.u64("fault-seed");
    for (const auto &[name, site] : kFaultSites)
        c.at(site).probability = f.real(name);
    c.at(Site::BackendSlow).meanDelay = millis(f, "backend-slow-ms");
    c.at(Site::PcieDegrade).factor = f.real("pcie-degrade-factor");
    c.at(Site::StreamStall).meanDelay = millis(f, "stall-ms");
    c.at(Site::KernelHang).meanDelay = millis(f, "hang-ms");
    return c;
}

inline constexpr Flag kFaultFlagRows[] = {
    Flag::u64("fault-seed", 0, kU64Max, "1", "fault plan seed")
        .records("fault_seed"),
    // fault_schedule summarises every probability row; it is keyed on
    // the first of them.
    Flag::real("backend-fail", 0, 1, "0",
               "backend call failure probability")
        .records("fault_schedule")
        .derived([](const Flags &f) -> ConfigValue {
            return faultSchedule(faultConfig(f));
        }),
    Flag::real("backend-slow", 0, 1, "0", "backend brownout probability"),
    Flag::real("backend-slow-ms", 0, 1e6, "5", "mean brownout delay, ms"),
    Flag::real("pcie-corrupt", 0, 1, "0",
               "PCIe corrupt+replay probability"),
    Flag::real("pcie-degrade", 0, 1, "0", "PCIe degradation probability"),
    Flag::real("pcie-degrade-factor", 1, 1000, "2",
               "PCIe degradation slowdown"),
    Flag::real("stall", 0, 1, "0", "stream stall probability"),
    Flag::real("stall-ms", 0, 1e6, "1", "mean stall duration, ms"),
    Flag::real("disconnect", 0, 1, "0", "client disconnect probability"),
    Flag::real("crash", 0, 1, "0",
               "backend crash-restart probability (per mutation)"),
    Flag::real("torn", 0, 1, "0",
               "probability a crash tears the final journal record"),
    Flag::real("hang", 0, 1, "0", "kernel hang probability (per cohort)"),
    Flag::real("hang-ms", 0, 1e6, "0",
               "injected hang stall, ms (0 = 8x --watchdog-ms, or 1 s "
               "without a watchdog)"),
    Flag::boolean("recovery", "off",
                  "write-ahead-journaled, checkpointed backend (banking "
                  "only)")
        .records("recovery"),
    Flag::real("watchdog-ms", 0, 1e6, "0",
               "cohort watchdog timeout that hedges stragglers, ms (0 = "
               "off)")
        .records("watchdog_ms"),
    Flag::boolean("pcie-crc", "off", "PCIe frame CRC + bounded retransmit")
        .records("pcie_crc"),
    Flag::u64("checkpoint-interval", 0, 1e9, "4096",
              "journaled records between checkpoints (0 = none)"),
    Flag::u64("retry-budget", 0, 1e6, "0", "backend retries per cohort"),
    Flag::real("backoff-us", 0, 1e6, "50", "retry backoff base, us"),
    Flag::real("deadline-ms", 0, 1e6, "0",
               "per-request deadline, ms (0 = none)"),
    Flag::u64("shed-backlog", 0, 4294967295.0, "0",
              "shed (503) above this formation backlog (0 = off)"),
    Flag::real("shed-p99-ms", 0, 1e6, "0",
               "shed above this observed p99, ms (0 = off)"),
};
/** Fault injection and degradation; recorded whenever any is given
 *  (check_bench.py requires these keys of ext_recovery). */
inline constexpr FlagGroup kFaultFlags{
    "fault injection, recovery and graceful degradation (all off by "
    "default)",
    kFaultFlagRows};

/** The fault family without the recovery layer, for the benches that
 *  drive a server directly and attach no journaled backend. */
inline constexpr auto kFaultNoRecoveryRows =
    omitFlags(kFaultFlagRows, {"recovery", "checkpoint-interval"});
inline constexpr FlagGroup kFaultNoRecoveryFlags{
    "fault injection and graceful degradation (all off by default)",
    kFaultNoRecoveryRows};

/** Overlays the degradation knobs onto a server config (every table
 *  default is RhythmConfig's: all off). */
inline void
applyFaults(const Flags &f, core::RhythmConfig &cfg)
{
    cfg.backendRetryBudget = static_cast<uint32_t>(f.u64("retry-budget"));
    cfg.retryBackoffBase = des::fromSeconds(f.real("backoff-us") / 1e6);
    cfg.requestDeadline = millis(f, "deadline-ms");
    cfg.shedBacklogLimit = static_cast<uint32_t>(f.u64("shed-backlog"));
    cfg.shedLatencySlo = millis(f, "shed-p99-ms");
    cfg.watchdogTimeout = millis(f, "watchdog-ms");
}

/** Overlays the link-model knob onto a device config. */
inline void
applyFaults(const Flags &f, simt::DeviceConfig &cfg)
{
    if (f.on("pcie-crc"))
        cfg.pcieCrcEnabled = true;
}

/** Overlays the fault flags onto an isolated run (the evaluateTitan /
 *  runIsolatedType path): the variant's server and device configs take
 *  the overlays above, the options block the fault schedule and the
 *  recovery layer. */
inline void
applyFaults(const Flags &f, platform::TitanVariant &variant,
            platform::IsolatedRunOptions &opts)
{
    applyFaults(f, variant.server);
    applyFaults(f, variant.device);
    opts.faults = faultConfig(f);
    opts.recovery = f.on("recovery");
    opts.checkpointInterval = f.u64("checkpoint-interval");
}

/**
 * Arms a directly-driven server/device pair. @p plan is the caller's
 * storage (declared next to the server so it outlives the run); it is
 * engaged and installed only when the schedule is non-quiet.
 */
inline void
armFaults(const Flags &f, core::RhythmServer &server, simt::Device &device,
          des::EventQueue &queue, std::optional<fault::FaultPlan> &plan)
{
    const fault::FaultConfig config = faultConfig(f);
    if (config.allQuiet())
        return;
    plan.emplace(config);
    server.setFaultPlan(&*plan);
    fault::installDeviceFaults(device, *plan, queue);
}

/** Copy engines / chunk size implied by --overlap=on alone. */
inline constexpr int kDefaultCopyEngines = 4;
inline constexpr uint32_t kDefaultChunkBytes = 256 * 1024;

/** Copy engines per direction the overlap flags configure. */
inline int
copyEngines(const Flags &f)
{
    if (f.given("copy-engines"))
        return static_cast<int>(f.u64("copy-engines"));
    return f.on("overlap") ? kDefaultCopyEngines : 1;
}

/** DMA chunk bytes the overlap flags configure (0 = whole transfer). */
inline uint32_t
copyChunkBytes(const Flags &f)
{
    if (const uint64_t kb = f.u64("copy-chunk-kb"))
        return static_cast<uint32_t>(kb * 1024);
    return f.on("overlap") ? kDefaultChunkBytes : 0;
}

inline constexpr Flag kOverlapFlagRows[] = {
    Flag::boolean("overlap", "off",
                  "pipeline the parse of cohort k+1 under the kernels of "
                  "cohort k and ship only occupied slot bytes (responses "
                  "are byte-identical on or off)")
        .records("overlap"),
    Flag::u64("copy-engines", 1, 64, {},
              "modeled DMA copy engines per PCIe direction (default 1, "
              "or 4 with --overlap=on)")
        .records("copy_engines")
        .derived([](const Flags &f) -> ConfigValue {
            return static_cast<double>(copyEngines(f));
        }),
    Flag::u64("copy-chunk-kb", 0, 1 << 20, "0",
              "DMA chunk size, KiB (0 = whole transfer, or 256 with "
              "--overlap=on)")
        .records("copy_chunk_kb")
        .derived([](const Flags &f) -> ConfigValue {
            return copyChunkBytes(f) / 1024.0;
        }),
};
/** Transfer/compute overlap (DESIGN.md 6h); recorded whenever any is
 *  given (check_bench.py requires these keys of ext_overlap). */
inline constexpr FlagGroup kOverlapFlags{
    "transfer/compute overlap (off by default)", kOverlapFlagRows};

/** Overlays the copy-engine knobs onto a device config. */
inline void
applyOverlap(const Flags &f, simt::DeviceConfig &cfg)
{
    if (!f.anyGiven(kOverlapFlags))
        return;
    cfg.copyEngines = copyEngines(f);
    cfg.copyChunkBytes = copyChunkBytes(f);
}

/** Overlays the pipeline knob onto a server config. */
inline void
applyOverlap(const Flags &f, core::RhythmConfig &cfg)
{
    if (f.on("overlap"))
        cfg.overlapPipeline = true;
}

/** Overlays the overlap knobs onto a Titan variant. */
inline void
applyOverlap(const Flags &f, platform::TitanVariant &variant)
{
    applyOverlap(f, variant.server);
    applyOverlap(f, variant.device);
}

inline constexpr Flag kBatchingFlagRows[] = {
    Flag::oneOf("batching", "fixed|adaptive", "fixed",
                "cohort formation policy (adaptive dispatches a forming "
                "cohort early when its oldest request's deadline slack "
                "drops below the modeled pipeline cost)")
        .records("batching"),
    Flag::real("deadline-default-ms", 0.001, 1e6, "10",
               "deadline for types without their own, ms")
        .records("deadline_default_ms", Record::Given),
    Flag::real("deadline-ms-", 0, 1e6, {},
               "per-type deadline by slugged type name, ms (e.g. "
               "--deadline-ms-transfer=3; 0 = the default deadline)")
        .records("deadline_ms", Record::Given)
        .derived([](const Flags &f) -> ConfigValue {
            std::string spec;
            for (const auto &[name, ms] : f.each("deadline-ms-")) {
                if (!spec.empty())
                    spec += ";";
                spec += name + "=" + formatDouble(ms, 3);
            }
            return spec;
        }),
    Flag::positive("slack-safety", 100, "1.2", "cost-estimate safety factor")
        .records("slack_safety", Record::Given),
    Flag::real("adaptive-scan-us", 1, 1e6, "200", "slack-scan period, us"),
    Flag::boolean("admission", "on", "deadline-aware admission control")
        .records("admission", Record::Given),
};

/** An explicit `--batching=fixed` alone must leave the --json document
 *  byte-identical to a run without the flag. */
inline bool
batchingRecorded(const Flags &f)
{
    if (f.text("batching") == "adaptive")
        return true;
    for (const Flag &row : kBatchingFlagRows)
        if (row.name != "batching" && f.given(row.name))
            return true;
    return false;
}

/** Deadline-aware adaptive batching (DESIGN.md 6i). */
inline constexpr FlagGroup kBatchingFlags{
    "deadline-aware adaptive batching (off by default)", kBatchingFlagRows,
    batchingRecorded};

/**
 * Overlays the batching policy onto a server config, resolving per-type
 * deadline slugs against @p service's type names. Exits with an error
 * on a slug no type matches (a silently ignored deadline would
 * invalidate a whole sweep).
 */
inline void
applyBatching(const Flags &f, core::RhythmConfig &cfg,
              const core::Service &service)
{
    if (!f.anyGiven(kBatchingFlags))
        return;
    cfg.adaptiveBatching = f.text("batching") == "adaptive";
    cfg.defaultDeadline = millis(f, "deadline-default-ms");
    cfg.slackSafety = f.real("slack-safety");
    cfg.adaptiveScanInterval =
        des::fromSeconds(f.real("adaptive-scan-us") / 1e6);
    cfg.adaptiveAdmission = f.on("admission");
    if (f.each("deadline-ms-").empty())
        return;
    cfg.typeDeadlines.assign(service.numTypes(), 0);
    for (const auto &[name, ms] : f.each("deadline-ms-")) {
        bool found = false;
        for (uint32_t t = 0; t < service.numTypes() && !found; ++t) {
            found = slug(service.typeName(t)) == name;
            if (found)
                cfg.typeDeadlines[t] = des::fromSeconds(ms / 1e3);
        }
        if (!found) {
            std::string message = "--deadline-ms-" + name +
                                  " matches no request type; known types:";
            for (uint32_t t = 0; t < service.numTypes(); ++t) {
                message += ' ';
                message += slug(service.typeName(t));
            }
            exitUsageError(message);
        }
    }
}

inline constexpr Flag kArrivalFlagRows[] = {
    Flag::oneOf("arrival", "closed|poisson|diurnal|flash", "closed",
                "arrival process driving injection")
        .records("arrival"),
    Flag::real("arrival-rate", 1, 1e9, "200000",
               "mean arrival rate, requests/s")
        .records("arrival_rate"),
    Flag::u64("arrival-seed", 0, kU64Max, "1", "arrival-stream seed")
        .records("arrival_seed"),
    Flag::real("flash-mult", 1, 1e6, "8", "flash-crowd rate multiplier")
        .records("flash_mult", Record::When, "arrival=flash"),
    Flag::real("flash-start-ms", 0, 1e6, "50", "flash onset, ms")
        .records("flash_start_ms", Record::When, "arrival=flash"),
    Flag::real("flash-dur-ms", 0, 1e6, "50", "flash duration, ms")
        .records("flash_dur_ms", Record::When, "arrival=flash"),
    Flag::real("diurnal-period-ms", 0.001, 1e6, "200",
               "diurnal cycle period, ms")
        .records("diurnal_period_ms", Record::When, "arrival=diurnal"),
    Flag::positive("diurnal-trough", 1, "0.25",
                   "trough rate as a fraction of the peak")
        .records("diurnal_trough", Record::When, "arrival=diurnal"),
};

/** True when requests arrive open-loop (a generator drives time). */
inline bool
openLoop(const Flags &f)
{
    return f.text("arrival") != "closed";
}

/** Open-loop arrivals (DESIGN.md 6i); recorded for open-loop runs only,
 *  so an explicit `--arrival=closed` leaves the document unchanged. */
inline constexpr FlagGroup kArrivalFlags{
    "open-loop arrivals (closed loop by default)", kArrivalFlagRows,
    openLoop};

/** The arrival rows the flash-crowd acceptance benches read (they fix
 *  the arrival shapes themselves). */
inline constexpr auto kFlashSweepRows = pickFlags(
    kArrivalFlagRows, {"arrival-rate", "arrival-seed", "flash-mult"});
inline constexpr FlagGroup kFlashSweepFlags{
    "arrival rate, seed and flash burst", kFlashSweepRows};

/** The arrival process the flags describe. */
inline net::ArrivalConfig
arrivalConfig(const Flags &f)
{
    net::ArrivalConfig c;
    c.kind = *net::parseArrivalKind(f.text("arrival"));
    c.rate = f.real("arrival-rate");
    c.seed = f.u64("arrival-seed");
    c.flashMultiplier = f.real("flash-mult");
    c.flashStartSec = f.real("flash-start-ms") / 1e3;
    c.flashDurationSec = f.real("flash-dur-ms") / 1e3;
    c.diurnalPeriodSec = f.real("diurnal-period-ms") / 1e3;
    c.diurnalTroughFraction = f.real("diurnal-trough");
    return c;
}

inline constexpr Flag kFusionFlagRows[] = {
    Flag::boolean("fusion", "off",
                  "pack similarity-compatible partial cohorts into shared "
                  "warps instead of padding each (responses are "
                  "byte-identical on or off)")
        .records("fusion"),
    Flag::positive("fusion-threshold", 1, "0.5",
                   "minimum online pair similarity to fuse (0.5 is Figure "
                   "2's indifference point)")
        .records("fusion_threshold"),
    Flag::u64("fusion-max-cohorts", 1, 1024, "4",
              "cohorts fusable into one launch")
        .records("fusion_max_cohorts"),
    Flag::positive("fingerprint-alpha", 1, "0.25",
                   "similarity EWMA smoothing factor")
        .records("fingerprint_alpha"),
    Flag::u64("fingerprint-lanes", 2, 65536, "32",
              "lanes sampled per fingerprint update"),
};

/** Cross-type cohort fusion (DESIGN.md 6j); recorded only with fusion
 *  on, so an explicit `--fusion=off` leaves the document unchanged. */
inline constexpr FlagGroup kFusionFlags{
    "cross-type cohort fusion (off by default)", kFusionFlagRows,
    [](const Flags &f) { return f.on("fusion"); }};

/** Overlays the fusion knobs onto a server config. */
inline void
applyFusionKnobs(const Flags &f, core::RhythmConfig &cfg)
{
    cfg.fusionSimilarityThreshold = f.real("fusion-threshold");
    cfg.fusionMaxCohorts = static_cast<uint32_t>(f.u64("fusion-max-cohorts"));
    cfg.fingerprint.alpha = f.real("fingerprint-alpha");
    cfg.fingerprint.sampleLanes =
        static_cast<uint32_t>(f.u64("fingerprint-lanes"));
}

/** Overlays the fusion policy onto a server config. */
inline void
applyFusion(const Flags &f, core::RhythmConfig &cfg)
{
    if (!f.anyGiven(kFusionFlags))
        return;
    cfg.fusionEnabled = f.on("fusion");
    applyFusionKnobs(f, cfg);
}

inline constexpr Flag kShardingFlagRows[] = {
    Flag::u64("devices", 1, 64, "1",
              "serve from an N-device fleet: per-device event streams, "
              "PCIe links, copy engines and backends behind a front-end "
              "balancer")
        .records("devices"),
    Flag::oneOf("balance", "hash|least", "hash",
                "session-hash or least-outstanding routing")
        .records("balance"),
    Flag::u64("shard-seed", 0, kU64Max, "5938129649563161416",
              "user-to-shard map seed")
        .records("shard_seed"),
    Flag::real("cross-shard", 0, 1, "0",
               "fraction of arrivals that also start a two-phase "
               "cross-shard transfer")
        .records("cross_shard", Record::Nonzero),
};

/** True for a multi-device run (--devices=1 is the single-device path). */
inline bool
fleetRun(const Flags &f)
{
    return f.u64("devices") > 1;
}

/** Multi-device sharding (DESIGN.md 6k); recorded for fleet runs only,
 *  so `--devices=1` leaves the document unchanged. */
inline constexpr FlagGroup kShardingFlags{
    "multi-device sharding (banking with open-loop arrivals)",
    kShardingFlagRows, fleetRun};

/** Builds the fleet config (per-shard config stays RhythmConfig). */
inline core::FleetConfig
fleetConfig(const Flags &f)
{
    core::FleetConfig fc;
    fc.devices = static_cast<uint32_t>(f.u64("devices"));
    fc.balance = f.text("balance") == "least"
                     ? core::BalanceMode::LeastOutstanding
                     : core::BalanceMode::SessionHash;
    fc.shardMapSeed = f.u64("shard-seed");
    return fc;
}

/**
 * Parses a bench's command line against the run flags plus @p groups:
 * prints `error:` and exits 2 on a bad argument, prints the help and
 * exits 0 on --help. Applies --sim-threads before any simulation object
 * exists.
 */
inline Flags
parseArgs(int argc, char **argv,
          std::initializer_list<const FlagGroup *> groups)
{
    std::vector<const FlagGroup *> all{&kRunFlags};
    all.insert(all.end(), groups);
    Flags flags = parseFlagsOrExit(argc, argv, all);
    util::setSimThreads(static_cast<unsigned>(flags.u64("sim-threads")));
    return flags;
}

} // namespace rhythm::bench

#endif // RHYTHM_BENCH_COMMON_HH
