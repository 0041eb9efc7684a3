/**
 * @file
 * Service-interface contract tests: every shipped Service (Banking,
 * Search, Chat) must satisfy the same pipeline contract — metadata
 * consistency, end-to-end serving without drops, drain, per-type cohort
 * grouping, and validated (non-error) responses for well-formed
 * traffic. New services can be added to the harness with one factory.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "backend/bankdb.hh"
#include "chat/service.hh"
#include "rhythm/banking_service.hh"
#include "rhythm/server.hh"
#include "search/service.hh"
#include "specweb/workload.hh"

namespace rhythm {
namespace {

simt::NullTracer gNull;

/** A service under test plus its request generator. */
struct Harness
{
    virtual ~Harness() = default;
    virtual core::Service &service() = 0;
    /** Generates a well-formed request; the server must not error it. */
    virtual std::string nextRequest(core::RhythmServer &server) = 0;
    virtual std::string name() const = 0;
};

struct BankingHarness : Harness
{
    BankingHarness() : db(100, 5), svc(db), gen(db, 9) {}

    core::Service &service() override { return svc; }

    std::string
    nextRequest(core::RhythmServer &server) override
    {
        specweb::RequestType type;
        do {
            type = gen.sampleType();
        } while (type == specweb::RequestType::Login ||
                 type == specweb::RequestType::Logout);
        // Reuse a small session pool: the contract fixture's session
        // array (cohortSize buckets) is deliberately tiny.
        if (sessions.empty())
            sessions = server.sessions().populate(16, db.numUsers());
        const auto &[sid, user] = sessions[next_++ % sessions.size()];
        return gen.generate(type, user, sid).raw;
    }

    std::string name() const override { return "banking"; }

    backend::BankDb db;
    core::BankingService svc;
    specweb::WorkloadGenerator gen;
    std::vector<std::pair<uint64_t, uint64_t>> sessions;
    size_t next_ = 0;
};

struct SearchHarness : Harness
{
    SearchHarness() : corpus(300, 2048, 5), index(corpus), svc(index),
                      gen(corpus, 9)
    {
    }

    core::Service &service() override { return svc; }

    std::string
    nextRequest(core::RhythmServer &) override
    {
        return gen.next().raw;
    }

    std::string name() const override { return "search"; }

    search::Corpus corpus;
    search::InvertedIndex index;
    search::SearchService svc;
    search::QueryGenerator gen;
};

struct ChatHarness : Harness
{
    ChatHarness() : store(16, 20, 5), svc(store), gen(store, 9) {}

    core::Service &service() override { return svc; }

    std::string
    nextRequest(core::RhythmServer &) override
    {
        chat::PageType type;
        return gen.next(type);
    }

    std::string name() const override { return "chat"; }

    chat::RoomStore store;
    chat::ChatService svc;
    chat::ChatGenerator gen;
};

using HarnessFactory = std::function<std::unique_ptr<Harness>()>;

/** One row of the contract suite: a service name and its harness. */
struct ServiceCase
{
    const char *name;
    HarnessFactory make;
};

// gtest prints the parameter into each test's listed name; print the
// service name so the names stay the same from build to build (the
// default printer would show the address of `name`).
void
PrintTo(const ServiceCase &c, std::ostream *os)
{
    *os << c.name;
}

class ServiceContract : public ::testing::TestWithParam<ServiceCase>
{
};

TEST_P(ServiceContract, MetadataIsConsistent)
{
    auto harness = GetParam().make();
    core::Service &svc = harness->service();
    ASSERT_GT(svc.numTypes(), 0u);
    for (uint32_t t = 0; t < svc.numTypes(); ++t) {
        EXPECT_FALSE(svc.typeName(t).empty()) << t;
        EXPECT_GE(svc.numStages(t), 1) << t;
        const uint32_t buffer = svc.responseBufferBytes(t);
        EXPECT_GT(buffer, 0u) << t;
        EXPECT_EQ(buffer & (buffer - 1), 0u)
            << "buffer not a power of two for type " << t;
    }
    EXPECT_GT(svc.backendRequestSlotBytes(), 0u);
    EXPECT_GT(svc.backendResponseSlotBytes(), 0u);
}

TEST_P(ServiceContract, ServesMixedTrafficWithoutDrops)
{
    auto harness = GetParam().make();

    des::EventQueue queue;
    simt::Device device(queue, simt::DeviceConfig{});
    core::RhythmConfig cfg;
    cfg.cohortSize = 16;
    cfg.cohortContexts = 6;
    cfg.cohortTimeout = des::kMillisecond;
    cfg.backendOnDevice = true;
    cfg.networkOverPcie = false;
    core::RhythmServer server(queue, device, harness->service(), cfg);

    uint64_t answered = 0, errors = 0;
    server.setResponseCallback([&](uint64_t, std::string_view response,
                                   des::Time) {
        ++answered;
        errors += response.find("HTTP/1.1 200") != 0;
    });

    const uint64_t total = 160;
    for (uint64_t i = 0; i < total; ++i) {
        const std::string raw = harness->nextRequest(server);
        while (!server.injectRequest(raw, i))
            queue.run();
    }
    server.flush();
    queue.run();
    queue.run(); // stragglers from flush-created partials

    EXPECT_EQ(answered, total) << harness->name();
    EXPECT_EQ(errors, 0u) << harness->name();
    EXPECT_TRUE(server.drained()) << harness->name();
    EXPECT_EQ(server.stats().errorResponses, 0u) << harness->name();
    EXPECT_GT(server.stats().cohortsLaunched, 0u);
}

TEST_P(ServiceContract, ResolveRejectsForeignPaths)
{
    auto harness = GetParam().make();
    core::Service &svc = harness->service();
    http::Request req;
    req.path = "/definitely/not/a/route.xyz";
    uint32_t type = 0;
    EXPECT_FALSE(svc.resolveType(req, type)) << harness->name();
}

TEST_P(ServiceContract, BackendRejectsGarbage)
{
    auto harness = GetParam().make();
    core::Service &svc = harness->service();
    const std::string resp = svc.executeBackend("totally|bogus", gNull);
    EXPECT_NE(resp.find("ERR"), std::string::npos) << harness->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, ServiceContract,
    ::testing::Values(
        ServiceCase{"banking",
                    [] {
                        return std::unique_ptr<Harness>(
                            new BankingHarness());
                    }},
        ServiceCase{"search",
                    [] {
                        return std::unique_ptr<Harness>(
                            new SearchHarness());
                    }},
        ServiceCase{"chat",
                    [] {
                        return std::unique_ptr<Harness>(
                            new ChatHarness());
                    }}),
    [](const ::testing::TestParamInfo<ServiceCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace rhythm
