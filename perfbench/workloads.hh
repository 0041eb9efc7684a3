/**
 * @file
 * The benchmark's serving workloads. Each repetition builds a workload
 * from a seed (setup), runs its timed phase, then checks every output
 * and reads the simulated metrics from the public stats.
 *
 * Every metric is labelled by its unit: "sim_*" units are the modelled
 * server's (deterministic for a seed), all others are the simulator's
 * own host cost.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** One named value with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Everything one repetition measured. */
struct RepResult
{
    /** False when any output check failed; error says which. */
    bool correct = true;
    std::string error;
    /** Operations offered (requests plus cross-shard transfers). */
    uint64_t attempted = 0;
    /** Requests the servers answered with an error or shed. Wrong
     *  outputs (a response that does not validate, a request never or
     *  twice answered, money not conserved) make the repetition
     *  incorrect instead. */
    uint64_t failed = 0;
    /** Successful responses (host_reqs_per_s numerator). */
    uint64_t responses = 0;
    /** Order-insensitive digest of every response (client id + bytes). */
    uint64_t digest = 0;

    double setupSeconds = 0.0;
    /** Wall time of the timed phase. */
    double runSeconds = 0.0;
    /** Time spent in the benchmark's own response callback. */
    double callbackSeconds = 0.0;
    /** Host set-up breakdown (host.setup.*). */
    std::vector<Metric> setupLayers;

    /** Simulated end-to-end metrics (sim_*, served_frac). */
    std::vector<Metric> simEndToEnd;
    /** Simulated per-layer metrics. */
    std::vector<Metric> simLayers;
    /** Divisors for host per-unit costs (whole timed phase). */
    uint64_t warps = 0;
    uint64_t events = 0;

    /** Span totals (traced repetitions only). */
    bool traced = false;
    SpanSummary spans;
};

/**
 * True when two repetitions simulated identically: same response
 * digest, operation counts and simulated metric values.
 */
bool sameSimulation(const RepResult &a, const RepResult &b);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string_view> &workloadNames();

/** Host worker threads the workload's execution engine runs on. */
unsigned workloadThreads(std::string_view workload);

/**
 * Runs one repetition: setup (timed as setupSeconds), the timed phase
 * (spans recorded when @p traced), output checks and metric collection.
 * When @p spans_path is non-empty and the run is traced, the spans are
 * written there before they are cleared.
 */
RepResult runRep(std::string_view workload, uint64_t seed, bool traced,
                 const std::string &spans_path = "");

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
