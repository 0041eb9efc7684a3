/**
 * @file
 * Similarity study: the paper's Section 2.3 experiment as a CLI tool.
 *
 * Captures dynamic basic-block traces for independent requests of each
 * Banking type, merges them in SIMT lockstep, and reports the potential
 * data-parallel speedup — plus a contrast experiment merging traces of
 * *different* types to show why cohorts group by type.
 *
 * Usage: similarity_study [traces-per-type]
 */

#include <iostream>

#include "analysis/similarity.hh"
#include "example_args.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    constexpr std::string_view kUsage =
        "similarity_study [traces-per-type]";
    examples::expectAtMost(argc, 1, kUsage);
    const int traces = static_cast<int>(examples::positionalArg(
        argc, argv, 1, {"traces-per-type", 1, 1000, 5}, kUsage));

    std::cout << "Merging " << traces
              << " independent same-type request traces per Banking "
                 "page\n(the paper's Figure 2 methodology).\n\n";

    TableWriter table({"request type", "sum blocks", "merged",
                       "speedup", "normalized"});
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        const auto &info = specweb::typeTable()[i];
        auto captured =
            analysis::captureRequestTraces(info.type, traces, 1000, 33);
        std::vector<const simt::ThreadTrace *> lanes;
        for (auto &t : captured)
            lanes.push_back(&t);
        auto r = analysis::measureSimilarity(lanes);
        table.addRow({std::string(info.name),
                      std::to_string(r.sumBlocks),
                      std::to_string(r.mergedBlocks),
                      formatDouble(r.speedup, 2),
                      formatDouble(r.normalizedSpeedup, 3)});
    }
    table.printAscii(std::cout);

    // Contrast: merge one trace of each type — little shared control
    // flow beyond the chrome, so the speedup collapses. This is why the
    // Rhythm parser sorts requests into per-type cohorts.
    std::cout << "\nContrast: merging one trace of EACH type "
                 "(mixed cohort):\n";
    std::vector<simt::ThreadTrace> mixed;
    for (size_t i = 0; i < specweb::kNumRequestTypes; ++i) {
        auto captured = analysis::captureRequestTraces(
            specweb::typeTable()[i].type, 1, 1000, 71);
        mixed.push_back(std::move(captured[0]));
    }
    std::vector<const simt::ThreadTrace *> lanes;
    for (auto &t : mixed)
        lanes.push_back(&t);
    auto r = analysis::measureSimilarity(lanes);
    std::cout << "  " << r.traceCount << " mixed traces: speedup "
              << formatDouble(r.speedup, 2) << " of ideal "
              << r.traceCount << " (normalized "
              << formatDouble(r.normalizedSpeedup, 3) << ")\n"
              << "Same-type cohorts are the win; mixed cohorts "
                 "serialize on divergent handler code.\n";
    return 0;
}
