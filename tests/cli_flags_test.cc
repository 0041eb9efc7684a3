/**
 * @file
 * The shared flag families as rhythm_sim and the benches declare them:
 * one command line must mean the same configuration in every binary,
 * and each table default must be the default of the config it feeds.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench/common.hh"
#include "tools/rhythm_sim_flags.hh"

namespace rhythm {
namespace {

Flags
parseWith(Flags::Groups groups, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    Flags flags;
    EXPECT_TRUE(flags.parse(static_cast<int>(args.size()), args.data(),
                            groups))
        << flags.error();
    return flags;
}

void
expectSameFaults(const fault::FaultConfig &a, const fault::FaultConfig &b)
{
    EXPECT_EQ(a.seed, b.seed);
    for (size_t i = 0; i < a.sites.size(); ++i) {
        EXPECT_EQ(a.sites[i].probability, b.sites[i].probability) << i;
        EXPECT_EQ(a.sites[i].meanDelay, b.sites[i].meanDelay) << i;
        EXPECT_EQ(a.sites[i].factor, b.sites[i].factor) << i;
    }
}

TEST(CliFlags, SimAndBenchBuildTheSameFaultConfig)
{
    // The groups fig8_throughput_efficiency and its siblings declare.
    const FlagGroup *bench_groups[] = {&bench::kRunFlags,
                                       &bench::kFaultFlags,
                                       &bench::kOverlapFlags};
    const std::vector<std::vector<const char *>> argvs = {
        {},
        {"--backend-slow=0.1", "--stall=0.05", "--pcie-degrade=0.2",
         "--hang=0.01"},
        {"--fault-seed=9", "--backend-fail=0.02", "--backend-slow=0.1",
         "--backend-slow-ms=7.5", "--pcie-corrupt=0.01",
         "--pcie-degrade=0.2", "--pcie-degrade-factor=3", "--stall=0.05",
         "--stall-ms=0.5", "--disconnect=0.01", "--crash=0.001",
         "--torn=0.5", "--hang=0.01", "--hang-ms=20"},
    };
    for (const auto &args : argvs) {
        const Flags sim = parseWith(sim::kSimGroups, args);
        const Flags bench = parseWith(bench_groups, args);
        expectSameFaults(bench::faultConfig(sim), bench::faultConfig(bench));
    }
    // The documented defaults: a brownout or stall given only its
    // probability still has a duration, and degradation a slowdown.
    const fault::FaultConfig c =
        bench::faultConfig(parseWith(bench_groups, {}));
    EXPECT_EQ(c.seed, 1u);
    EXPECT_EQ(c.at(fault::Site::BackendSlow).meanDelay,
              5 * des::kMillisecond);
    EXPECT_EQ(c.at(fault::Site::StreamStall).meanDelay,
              1 * des::kMillisecond);
    EXPECT_EQ(c.at(fault::Site::PcieDegrade).factor, 2.0);
    EXPECT_EQ(c.at(fault::Site::KernelHang).meanDelay, 0);
    EXPECT_TRUE(c.allQuiet());
}

TEST(CliFlags, RemovedCacheFlagsFailClosed)
{
    // Memoization is always on, so its old switches are unknown flags:
    // rhythm_sim rejects them before anything runs (exit 2, error:).
    for (const char *arg :
         {"--profile-cache=on", "--profile-cache-entries=8"}) {
        const char *argv[] = {"rhythm_sim", arg};
        Flags flags;
        EXPECT_FALSE(flags.parse(2, argv, sim::kSimGroups)) << arg;
        EXPECT_EQ(flags.error().rfind("unknown flag: --profile-cache", 0), 0u)
            << flags.error();
    }
}

TEST(CliFlags, TableDefaultsAreTheConfigDefaults)
{
    // Naming one flag of each family makes its apply() overlay every
    // row's default; the result must be the untouched config.
    const Flags f = parseWith(sim::kSimGroups,
                              {"--batching=fixed", "--fusion=off",
                               "--overlap=off", "--backoff-us=50"});
    core::RhythmConfig cfg;
    bench::applyFaults(f, cfg);
    bench::applyOverlap(f, cfg);
    bench::applyFusion(f, cfg);
    backend::BankDb db(10, 1);
    core::BankingService service(db);
    bench::applyBatching(f, cfg, service);
    const core::RhythmConfig ref;
    EXPECT_EQ(cfg.backendRetryBudget, ref.backendRetryBudget);
    EXPECT_EQ(cfg.retryBackoffBase, ref.retryBackoffBase);
    EXPECT_EQ(cfg.overlapPipeline, ref.overlapPipeline);
    EXPECT_EQ(cfg.adaptiveBatching, ref.adaptiveBatching);
    EXPECT_EQ(cfg.defaultDeadline, ref.defaultDeadline);
    EXPECT_EQ(cfg.slackSafety, ref.slackSafety);
    EXPECT_EQ(cfg.adaptiveScanInterval, ref.adaptiveScanInterval);
    EXPECT_EQ(cfg.adaptiveAdmission, ref.adaptiveAdmission);
    EXPECT_TRUE(cfg.typeDeadlines.empty());
    EXPECT_EQ(cfg.fusionEnabled, ref.fusionEnabled);
    EXPECT_EQ(cfg.fusionSimilarityThreshold, ref.fusionSimilarityThreshold);
    EXPECT_EQ(cfg.fusionMaxCohorts, ref.fusionMaxCohorts);
    EXPECT_EQ(cfg.fingerprint.alpha, ref.fingerprint.alpha);
    EXPECT_EQ(cfg.fingerprint.sampleLanes, ref.fingerprint.sampleLanes);

    simt::DeviceConfig dev;
    bench::applyOverlap(f, dev);
    EXPECT_EQ(dev.copyEngines, simt::DeviceConfig{}.copyEngines);
    EXPECT_EQ(dev.copyChunkBytes, simt::DeviceConfig{}.copyChunkBytes);

    const net::ArrivalConfig a = bench::arrivalConfig(f);
    const net::ArrivalConfig aref;
    EXPECT_EQ(a.kind, net::ArrivalKind::Closed);
    EXPECT_EQ(a.rate, aref.rate);
    EXPECT_EQ(a.seed, aref.seed);
    EXPECT_EQ(a.flashMultiplier, aref.flashMultiplier);
    EXPECT_EQ(a.flashStartSec, aref.flashStartSec);
    EXPECT_EQ(a.flashDurationSec, aref.flashDurationSec);
    EXPECT_EQ(a.diurnalPeriodSec, aref.diurnalPeriodSec);
    EXPECT_EQ(a.diurnalTroughFraction, aref.diurnalTroughFraction);

    EXPECT_EQ(bench::fleetConfig(f).shardMapSeed,
              core::FleetConfig{}.shardMapSeed);
}

TEST(CliFlags, IsolatedRunsTakeEveryFaultAndOverlapFlag)
{
    // An isolated-run bench overlays its flags onto the Titan variant
    // through the same server/device overlays as a directly driven
    // server, so no accepted flag is dropped on the way.
    const FlagGroup *bench_groups[] = {&bench::kRunFlags,
                                       &bench::kFaultFlags,
                                       &bench::kOverlapFlags};
    const Flags f = parseWith(
        bench_groups,
        {"--retry-budget=3", "--backoff-us=20", "--deadline-ms=0.5",
         "--shed-backlog=7", "--shed-p99-ms=4", "--watchdog-ms=9",
         "--pcie-crc", "--overlap=on", "--copy-engines=2",
         "--copy-chunk-kb=64", "--recovery", "--checkpoint-interval=11",
         "--backend-fail=0.01"});
    platform::TitanVariant v = platform::titanB();
    platform::IsolatedRunOptions opts;
    bench::applyFaults(f, v, opts);
    bench::applyOverlap(f, v);
    EXPECT_EQ(v.server.backendRetryBudget, 3u);
    EXPECT_EQ(v.server.retryBackoffBase, 20 * des::kMicrosecond);
    EXPECT_EQ(v.server.requestDeadline, des::fromSeconds(0.5e-3));
    EXPECT_EQ(v.server.shedBacklogLimit, 7u);
    EXPECT_EQ(v.server.shedLatencySlo, 4 * des::kMillisecond);
    EXPECT_EQ(v.server.watchdogTimeout, 9 * des::kMillisecond);
    EXPECT_TRUE(v.server.overlapPipeline);
    EXPECT_TRUE(v.device.pcieCrcEnabled);
    EXPECT_EQ(v.device.copyEngines, 2);
    EXPECT_EQ(v.device.copyChunkBytes, 64u * 1024);
    EXPECT_TRUE(opts.recovery);
    EXPECT_EQ(opts.checkpointInterval, 11u);
    EXPECT_FALSE(opts.faults.allQuiet());

    // End to end: a deadline and a one-request backlog limit change an
    // isolated run (they used to be parsed and then ignored).
    platform::IsolatedRunOptions small;
    small.cohorts = 2;
    small.users = 400;
    small.laneSample = 64;
    auto run = [&](std::vector<const char *> args) {
        platform::TitanVariant b = platform::titanB();
        bench::applyFaults(parseWith(bench_groups, args), b, small);
        return platform::runIsolatedType(
            b, specweb::RequestType::CheckDetailHtml, small);
    };
    const platform::TypeRunResult healthy = run({});
    const platform::TypeRunResult degraded =
        run({"--deadline-ms=0.001", "--shed-backlog=1"});
    EXPECT_NE(degraded.throughput, healthy.throughput);
    EXPECT_NE(degraded.avgLatencyMs, healthy.avgLatencyMs);
}

} // namespace
} // namespace rhythm
