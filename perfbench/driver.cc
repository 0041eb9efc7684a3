/**
 * @file
 * perfbench_driver: runs one benchmark workload for a measurement
 * budget and prints every metric by name with its unit, then one JSON
 * result line.
 *
 *   perfbench_driver --workload closed-titanB --seed 1 --seconds 10 \
 *                    --trace 0
 *
 * Repetitions (set up, timed phase, checks) run until the budget is
 * spent, at least three. The first is a warm-up: checked, and the
 * reference every later repetition's simulated metrics and response
 * digest must equal exactly, but left out of the host medians. With
 * --trace 0 the result holds the end-to-end metrics; with --trace 1
 * untraced and traced repetitions alternate and the result holds the
 * per-layer metrics, including the tracing overhead against the
 * untraced repetitions. A run whose outputs fail any check prints the
 * failure on stderr, reports no metrics and exits 1; a malformed
 * command line exits 2.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "args.hh"
#include "spans.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** Where traced runs write their spans (relative to the checkout). */
constexpr const char *kSpansDir = ".bench_build/perfbench-spans";

/** Repetitions run at least this often, whatever the budget: the
 *  warm-up plus two measured (one untraced, one traced with --trace 1). */
constexpr uint32_t kMinReps = 3;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
hostReqsPerSecond(const RepResult &r)
{
    return static_cast<double>(r.responses) /
           (r.runSeconds - r.callbackSeconds);
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Median over measured repetitions of a host set-up phase. */
double
medianSetupLayer(const std::vector<RepResult> &reps, size_t index)
{
    std::vector<double> v;
    for (size_t i = 1; i < reps.size(); ++i)
        v.push_back(reps[i].setupLayers[index].value);
    return median(v);
}

/** Host per-layer metrics from the traced repetitions (medians). */
std::vector<Metric>
tracedMetrics(const std::vector<const RepResult *> &traced,
              double untraced_rps)
{
    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const RepResult *r : traced)
            v.push_back(fn(*r));
        return median(v);
    };
    auto self = [](const RepResult &r, Layer l) {
        return r.spans.selfSeconds[static_cast<size_t>(l)];
    };
    auto per_call_us = [](const RepResult &r, Layer l) {
        const size_t i = static_cast<size_t>(l);
        return r.spans.calls[i]
                   ? r.spans.busySeconds[i] * 1e6 /
                         static_cast<double>(r.spans.calls[i])
                   : 0.0;
    };
    auto calls = [](const RepResult &r, Layer l) {
        return static_cast<double>(r.spans.calls[static_cast<size_t>(l)]);
    };
    const double traced_rps =
        med([](const RepResult &r) { return hostReqsPerSecond(r); });
    return {
        {"host.timed_s", "s", med([](const RepResult &r) {
             return r.spans.wallSeconds;
         })},
        {"host.core.self_s", "s",
         med([&](const RepResult &r) { return self(r, Layer::Run); })},
        {"host.core.ns_per_warp", "ns/warp", med([&](const RepResult &r) {
             return self(r, Layer::Run) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(r.warps, 1));
         })},
        {"host.des.ns_per_event", "ns/event", med([&](const RepResult &r) {
             return self(r, Layer::Run) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(r.events, 1));
         })},
        {"host.service.stage_s", "s",
         med([&](const RepResult &r) { return self(r, Layer::Stage); })},
        {"host.service.stage_calls", "count",
         med([&](const RepResult &r) { return calls(r, Layer::Stage); })},
        {"host.service.stage_us_per_call", "us", med([&](const RepResult &r) {
             return per_call_us(r, Layer::Stage);
         })},
        {"host.backend.exec_s", "s",
         med([&](const RepResult &r) { return self(r, Layer::Backend); })},
        {"host.backend.calls", "count",
         med([&](const RepResult &r) { return calls(r, Layer::Backend); })},
        {"host.backend.us_per_call", "us", med([&](const RepResult &r) {
             return per_call_us(r, Layer::Backend);
         })},
        {"host.server.inject_s", "s",
         med([&](const RepResult &r) { return self(r, Layer::Inject); })},
        {"host.fleet.inject_s", "s", med([&](const RepResult &r) {
             return self(r, Layer::FleetInject) + self(r, Layer::CrossShard);
         })},
        {"host.callback_s", "s",
         med([&](const RepResult &r) { return self(r, Layer::Callback); })},
        {"host.accounted_frac", "fraction", med([](const RepResult &r) {
             double sum = 0.0;
             for (const double s : r.spans.selfSeconds)
                 sum += s;
             return r.spans.wallSeconds > 0 ? sum / r.spans.wallSeconds : 0.0;
         })},
        {"host.traced_reqs_per_s", "req/s", traced_rps},
        {"host.trace_overhead_frac", "fraction", untraced_rps / traced_rps - 1.0},
    };
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    Options opt;
    try {
        opt = parseArgs(args, workloadNames());
    } catch (const ArgError &e) {
        std::cerr << "error: " << e.what() << "\n" << usage(workloadNames());
        return 2;
    }
    rhythm::util::setSimThreads(workloadThreads(opt.workload));

    std::string spans_path;
    if (opt.trace) {
        std::error_code ec;
        std::filesystem::create_directories(kSpansDir, ec);
        if (ec) {
            std::cerr << "error: cannot create " << kSpansDir << ": "
                      << ec.message() << "\n";
            return 1;
        }
        spans_path = std::string(kSpansDir) + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".tsv";
    }

    // Repetitions run until the budget is spent. The first repetition
    // warms allocators, caches and the worker pool: it is checked and is
    // the simulation reference, but its host times are left out of the
    // medians. The traced variant then alternates untraced and traced
    // repetitions.
    std::vector<RepResult> reps;
    double peak_rss_mb = 0.0;
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (uint32_t i = 0; i < kMinReps || elapsed() < opt.seconds; ++i) {
        const bool traced = opt.trace && i > 0 && i % 2 == 0;
        reps.push_back(runRep(opt.workload, opt.seed, traced,
                              traced ? spans_path : ""));
        RepResult &r = reps.back();
        if (r.correct && !sameSimulation(r, reps.front())) {
            r.correct = false;
            r.error = "repetition " + std::to_string(i) +
                      " simulated differently from repetition 0";
        }
        if (!r.correct) {
            std::cerr << "error: " << opt.workload << " seed " << opt.seed
                      << ": " << r.error << "\n";
            printResult(false, r.attempted, r.failed, {});
            return 1;
        }
        // Peak RSS of one workload run (set-up plus timed phase): read
        // once, so it does not depend on how many repetitions fit the
        // budget.
        if (i == 0)
            peak_rss_mb = peakRssMb();
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> setup, rps;
    std::vector<const RepResult *> traced;
    for (size_t i = 0; i < reps.size(); ++i) {
        const RepResult &r = reps[i];
        attempted += r.attempted;
        failed += r.failed;
        if (i == 0)
            continue; // warm-up
        setup.push_back(r.setupSeconds);
        if (r.traced)
            traced.push_back(&r);
        else
            rps.push_back(hostReqsPerSecond(r));
    }
    const RepResult &first = reps.front();

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = first.simEndToEnd;
        metrics.push_back({"host_reqs_per_s", "req/s", median(rps)});
        metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb});
        metrics.push_back({"setup_s", "s", median(setup)});
    } else {
        metrics = first.simLayers;
        for (size_t i = 0; i < first.setupLayers.size(); ++i)
            metrics.push_back({first.setupLayers[i].name, "s",
                               medianSetupLayer(reps, i)});
        for (Metric &m : tracedMetrics(traced, median(rps)))
            metrics.push_back(std::move(m));
    }

    std::cout << "# perfbench " << opt.workload << " seed " << opt.seed
              << ": " << reps.size() << " repetitions ("
              << traced.size() << " traced), host threads "
              << workloadThreads(opt.workload) << "\n";
    if (opt.trace)
        std::cout << "# " << traced.back()->spans.spans << " spans on "
                  << traced.back()->spans.threads
                  << " threads in the last traced repetition: " << spans_path
                  << "\n";
    for (const Metric &m : first.simLayers)
        if (m.name == "sim.latency_samples")
            std::cout << "# sim_p50_ms and sim_p99_ms over "
                      << number(m.value) << " samples\n";
    for (const Metric &m : metrics)
        std::cout << "# " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    printResult(true, attempted, failed, metrics);
    return 0;
}
