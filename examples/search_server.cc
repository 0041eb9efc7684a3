/**
 * @file
 * Search-on-Rhythm demo: the paper's Section 8 direction ("exploring
 * other workloads like Search ... and deploying them using Rhythm")
 * made concrete. A synthetic Zipfian corpus is indexed, and mixed
 * search traffic (home, results, document, suggest pages) is served by
 * the same cohort pipeline that runs the Banking workload — only the
 * Service implementation differs.
 *
 * Usage: search_server [documents] [queries] [cohort-size]
 */

#include <array>
#include <iostream>

#include "des/event_queue.hh"
#include "example_args.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "util/strings.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace rhythm;
    constexpr std::string_view kUsage =
        "search_server [documents] [queries] [cohort-size]";
    examples::expectAtMost(argc, 3, kUsage);
    const uint32_t docs = static_cast<uint32_t>(examples::positionalArg(
        argc, argv, 1, {"documents", 1, 1000000, 2000}, kUsage));
    const int queries = static_cast<int>(examples::positionalArg(
        argc, argv, 2, {"queries", 1, 10000000, 512}, kUsage));
    const uint32_t cohort = static_cast<uint32_t>(examples::positionalArg(
        argc, argv, 3, {"cohort-size", 1, 65536, 64}, kUsage));

    std::cout << "Indexing " << docs << " documents... ";
    search::Corpus corpus(docs, 4096, 7);
    search::InvertedIndex index(corpus);
    std::cout << index.totalPostings() << " postings.\n";

    des::EventQueue queue;
    simt::Device device(queue, simt::DeviceConfig{});
    search::SearchService service(index);

    core::RhythmConfig config;
    config.cohortSize = cohort;
    config.cohortContexts = 8;
    config.cohortTimeout = des::kMillisecond;
    config.backendOnDevice = true; // Titan B style SoC
    config.networkOverPcie = false;
    core::RhythmServer server(queue, device, service, config);

    search::QueryGenerator gen(corpus, 99);
    std::array<int, search::kNumPageTypes> sent{}, valid{};
    std::vector<search::PageType> types;

    server.setResponseCallback([&](uint64_t client,
                                   std::string_view response,
                                   des::Time) {
        // Pull-mode client ids are assigned sequentially from 1.
        const search::PageType type = types[client - 1];
        valid[static_cast<uint32_t>(type)] +=
            search::validateSearchResponse(type, response);
    });

    int issued = 0;
    server.start([&]() -> std::optional<std::string> {
        if (issued >= queries)
            return std::nullopt;
        ++issued;
        search::GeneratedQuery q = gen.next();
        types.push_back(q.type);
        ++sent[static_cast<uint32_t>(q.type)];
        return std::move(q.raw);
    });
    queue.run();

    TableWriter table({"page type", "requests", "validated"});
    for (uint32_t t = 0; t < search::kNumPageTypes; ++t) {
        table.addRow({std::string(search::pageTable()[t].name),
                      std::to_string(sent[t]), std::to_string(valid[t])});
    }
    table.printAscii(std::cout);

    const core::RhythmStats &stats = server.stats();
    std::cout << "cohorts launched:   " << stats.cohortsLaunched
              << "\nsimulated time:     "
              << formatDouble(des::toMillis(queue.now()), 2)
              << " ms\nthroughput:         "
              << humanCount(static_cast<double>(stats.responsesCompleted) /
                            des::toSeconds(queue.now()))
              << "reqs/s\nmean latency:       "
              << formatDouble(stats.latencyMs.mean(), 2)
              << " ms\ndevice utilization: "
              << formatDouble(device.kernelUtilization(), 2) << "\n";
    return 0;
}
