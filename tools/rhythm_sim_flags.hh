/**
 * @file
 * rhythm_sim's option table: its own flags plus the shared families it
 * accepts (bench/common.hh). Kept in a header so tests can parse the
 * exact command line rhythm_sim accepts.
 */

#ifndef RHYTHM_TOOLS_RHYTHM_SIM_FLAGS_HH
#define RHYTHM_TOOLS_RHYTHM_SIM_FLAGS_HH

#include "bench/common.hh"
#include "util/flags.hh"

namespace rhythm::sim {

inline constexpr Flag kSimFlagRows[] = {
    Flag::oneOf("workload", "banking|search|chat", "banking",
                "workload to serve")
        .records("workload"),
    Flag::oneOf("platform", "titanA|titanB|titanC", "titanB",
                "device preset")
        .records("platform"),
    Flag::path("type", "isolate one banking request type, e.g. "
                       "--type=\"post payee\""),
    Flag::u64("cohorts", 0, 1e6, "10", "cohorts to push through")
        .records("cohorts"),
    Flag::u64("cohort-size", 1, 65536, "4096", "requests per cohort")
        .records("cohort_size"),
    Flag::u64("contexts", 1, 65536, "16", "cohort contexts"),
    Flag::real("timeout-ms", 0, 1e6, "2",
               "cohort formation timeout, ms (0 = off)"),
    Flag::u64("lane-sample", 0, 65536, "128",
              "lanes executed per cohort (0 = execute every lane)"),
    Flag::u64("users", 1, 1e7, "2000", "bank database users"),
    Flag::u64("docs", 1, 1e6, "4000", "search corpus documents"),
    Flag::u64("sms", 1, 1024, {},
              "streaming multiprocessors (default: the preset's)"),
    Flag::real("mem-gbs", 0.001, 1e6, {},
               "device DRAM bandwidth, GB/s (default: the preset's)"),
    Flag::real("pcie-gbs", 0.001, 1e6, {},
               "PCIe bandwidth per direction, GB/s (default: the "
               "preset's)"),
    Flag::u64("queues", 1, 1024, {},
              "hardware work queues (default: the preset's)"),
    Flag::boolean("transpose", "on", "column-major cohort buffers"),
    Flag::boolean("padding", "on", "whitespace-pad responses"),
    Flag::u64("seed", 0, kU64Max, "42", "deterministic seed")
        .records("seed"),
    Flag::path("trace-out", "Chrome trace_event JSON of the run (perfetto)"),
    Flag::path("digest-out",
               "order-insensitive FNV-1a digest of every response"),
};

/** rhythm_sim's own flags; its run parameters are always recorded. */
inline constexpr FlagGroup kSimFlags{"workload, platform and run shape",
                                     kSimFlagRows, recordAlways};

/** Everything rhythm_sim accepts, in --help and --json config order.
 *  It records the config of every group but the fault family. */
inline constexpr const FlagGroup *kSimGroups[] = {
    &kSimFlags,           &bench::kRunFlags,     &bench::kOverlapFlags,
    &bench::kBatchingFlags, &bench::kArrivalFlags, &bench::kFusionFlags,
    &bench::kShardingFlags, &bench::kFaultFlags,
};

} // namespace rhythm::sim

#endif // RHYTHM_TOOLS_RHYTHM_SIM_FLAGS_HH
