/**
 * @file
 * Tests of the per-request tracing layer (sim/span.hh).
 *
 * The two load-bearing guarantees:
 *  - stamps are pure metadata: installing a SpanCollector must not
 *    move a single simulated timestamp (checked against the seed's
 *    golden echo timestamps with stamping both OFF and ON);
 *  - the per-stage deltas of every finished span are monotone and
 *    telescope exactly to the end-to-end latency (the §6.2-style
 *    breakdown tables rest on this).
 * Plus: the Chrome trace-event export must round-trip through a JSON
 * parser with the right events in it.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <vector>

#include "json_lite.hh"

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "host/node.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using sim::SpanCollector;
using sim::Stage;

TEST(Span, BeginStampFinishFoldsDeltasExactly)
{
    sim::Simulator s;
    SpanCollector spans(s);
    EXPECT_EQ(s.spans(), &spans);

    std::uint64_t id = spans.begin(100);
    EXPECT_NE(id, 0u);
    spans.stamp(id, Stage::NicTx, 150);
    spans.stamp(id, Stage::SnicIngress, 400);
    spans.stamp(id, Stage::AppStart, 900);
    // Skipped stages (DispatchEnqueue...) must not contribute.
    spans.finish(id, 1000);

    ASSERT_EQ(spans.finished(), 1u);
    EXPECT_EQ(spans.stageHistogram(Stage::NicTx).min(), 50u);
    EXPECT_EQ(spans.stageHistogram(Stage::SnicIngress).min(), 250u);
    EXPECT_EQ(spans.stageHistogram(Stage::AppStart).min(), 500u);
    EXPECT_EQ(spans.stageHistogram(Stage::ClientRx).min(), 100u);
    EXPECT_EQ(spans.stageHistogram(Stage::DispatchEnqueue).count(), 0u);
    EXPECT_EQ(spans.totalHistogram().min(), 900u);

    double stageSum = 0.0;
    for (std::size_t i = 1; i < sim::kNumStages; ++i)
        stageSum += spans.stageHistogram(static_cast<Stage>(i)).sum();
    EXPECT_EQ(stageSum, spans.totalHistogram().sum());
}

TEST(Span, FirstStampWinsAndUnknownIdsAreIgnored)
{
    sim::Simulator s;
    SpanCollector spans(s);

    std::uint64_t id = spans.begin(0);
    spans.stamp(id, Stage::NicTx, 10);
    // A response re-traversing the same NIC must not overwrite the
    // request's stamp.
    spans.stamp(id, Stage::NicTx, 99);

    // Unknown / zero ids: silently dropped, never crash.
    spans.stamp(0, Stage::NicTx, 5);
    spans.stamp(424242, Stage::NicTx, 5);
    spans.finish(0, 5);
    spans.finish(424242, 5);

    spans.finish(id, 20);
    ASSERT_EQ(spans.finished(), 1u);
    EXPECT_EQ(spans.stageHistogram(Stage::NicTx).min(), 10u);
    EXPECT_EQ(spans.stageHistogram(Stage::ClientRx).min(), 10u);
}

TEST(Span, TagBindingsResolveStampAndUnbind)
{
    sim::Simulator s;
    SpanCollector spans(s);
    int memA, memB;

    std::uint64_t id = spans.begin(0);
    spans.bindTag(&memA, 0, 7, id);

    // Same tag on a different ring: distinct binding, no cross-talk.
    spans.stampTag(&memB, 0, 7, Stage::MqueueWrite, 111);
    spans.stampTag(&memA, 4096, 7, Stage::MqueueWrite, 222);
    spans.stampTag(&memA, 0, 7, Stage::MqueueWrite, 333);

    spans.unbindTag(&memA, 0, 7);
    spans.stampTag(&memA, 0, 7, Stage::GioPop, 444); // unbound: no-op

    spans.finish(id, 500);
    ASSERT_EQ(spans.finished(), 1u);
    EXPECT_EQ(spans.stageHistogram(Stage::MqueueWrite).min(), 333u);
    EXPECT_EQ(spans.stageHistogram(Stage::GioPop).count(), 0u);
}

TEST(Span, UninstallsFromSimulatorOnDestruction)
{
    sim::Simulator s;
    {
        SpanCollector spans(s);
        EXPECT_EQ(s.spans(), &spans);
    }
    EXPECT_EQ(s.spans(), nullptr);
}

TEST(Span, RetainLimitCountsDroppedSpans)
{
    sim::Simulator s;
    SpanCollector spans(s);
    spans.setRetainLimit(2);
    for (int i = 0; i < 5; ++i)
        spans.finish(spans.begin(10 * i), 10 * i + 5);
    EXPECT_EQ(spans.finished(), 5u);
    EXPECT_EQ(spans.spans().size(), 2u);
    EXPECT_EQ(spans.droppedSpans(), 3u);
    // Histograms keep aggregating past the retain limit.
    EXPECT_EQ(spans.totalHistogram().count(), 5u);
}

TEST(Span, ChromeTraceExportRoundTripsThroughJsonParser)
{
    sim::Simulator s;
    SpanCollector spans(s);

    std::uint64_t id = spans.begin(1000);
    spans.stamp(id, Stage::NicTx, 1500);
    spans.stamp(id, Stage::AppStart, 2000);
    spans.finish(id, 3000);
    std::uint64_t id2 = spans.begin(5000);
    spans.finish(id2, 6000);

    std::ostringstream os;
    spans.writeChromeTrace(os);
    jsonlite::Value doc = jsonlite::parse(os.str());

    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ns");
    const jsonlite::Value &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // Span 1: nic_tx, app_start, client_rx. Span 2: client_rx only.
    ASSERT_EQ(events.items.size(), 4u);

    double durSum = 0.0;
    for (const jsonlite::Value &ev : events.items) {
        EXPECT_EQ(ev.at("ph").str, "X");
        EXPECT_TRUE(ev.at("ts").isNumber());
        EXPECT_TRUE(ev.at("dur").isNumber());
        EXPECT_TRUE(ev.at("name").isString());
        durSum += ev.at("dur").number;
    }
    // Total traced time: 2000 ns + 1000 ns = 3 us.
    EXPECT_NEAR(durSum, 3.0, 1e-9);
    EXPECT_EQ(events.items[0].at("name").str, "nic_tx");
    EXPECT_EQ(events.items[0].at("ts").number, 1.0);  // 1000 ns
    EXPECT_EQ(events.items[0].at("dur").number, 0.5); // 500 ns
}

namespace {

/** Everything the golden-scenario assertions need, captured before
 *  the world (and its collector) is torn down. */
struct GoldenResult
{
    std::vector<sim::Tick> stamps;
    std::uint64_t finished = 0;
    std::vector<sim::RequestSpan> spans;
    std::array<std::uint64_t, sim::kNumStages> stageCount{};
    std::array<double, sim::kNumStages> stageSum{};
    std::uint64_t totalCount = 0;
    double totalSum = 0.0;
    std::string traceJson;
};

/** The golden seed scenario of test_lynx_batching.cc: five
 *  sequential 64 B echoes through the default Lynx-on-host runtime,
 *  with or without a SpanCollector installed, optionally with gio's
 *  whole-ring receive sweeps (rxBurst). */
GoldenResult
runGoldenEcho(bool withCollector, bool rxBurst = false)
{
    GoldenResult result;
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    std::unique_ptr<SpanCollector> owned;
    if (withCollector)
        owned = std::make_unique<SpanCollector>(s);
    SpanCollector *collector = owned.get();

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg =
        snic::hostRuntimeConfig(cores, server.nic());
    cfg.gio.rxBurst = rxBurst;
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 0));
    rt.start();

    net::Endpoint &ep = client.bind(net::Protocol::Udp, 30000);
    auto clientTask = [&]() -> sim::Task {
        for (int i = 0; i < 5; ++i) {
            net::Message m;
            m.src = {client.node(), 30000};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload.assign(64, static_cast<std::uint8_t>(i));
            if (collector)
                m.traceId = collector->begin(s.now());
            co_await client.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 64u);
            if (collector)
                collector->finish(r.traceId, s.now());
            result.stamps.push_back(s.now());
        }
    };
    sim::spawn(s, clientTask());
    s.runUntil(10_ms);

    if (collector) {
        result.finished = collector->finished();
        result.spans = collector->spans();
        for (std::size_t i = 0; i < sim::kNumStages; ++i) {
            const sim::Histogram &h =
                collector->stageHistogram(static_cast<Stage>(i));
            result.stageCount[i] = h.count();
            result.stageSum[i] = h.sum();
        }
        result.totalCount = collector->totalHistogram().count();
        result.totalSum = collector->totalHistogram().sum();
        std::ostringstream os;
        collector->writeChromeTrace(os);
        result.traceJson = os.str();
    }
    return result;
}

const std::vector<sim::Tick> kSeedStamps{11763, 23526, 35289, 47052,
                                         58815};

} // namespace

/** Whole-ring receive sweeps hand out every message through the
 *  same path, the first of each sweep included, so each finished span
 *  carries its AppStart stamp. */
TEST(SpanGolden, RxBurstStampsAppStartOnEverySpan)
{
    GoldenResult r = runGoldenEcho(true, /*rxBurst=*/true);
    EXPECT_EQ(r.stamps, kSeedStamps);
    EXPECT_EQ(r.finished, 5u);
    ASSERT_EQ(r.spans.size(), 5u);
    for (const sim::RequestSpan &span : r.spans)
        EXPECT_TRUE(span.stamped(Stage::AppStart)) << "span " << span.id;
    EXPECT_EQ(r.stageCount[static_cast<std::size_t>(Stage::AppStart)],
              r.finished);
}

/** Stamping disabled (no collector): the seed's golden timestamps. */
TEST(SpanGolden, NoCollectorReproducesSeedTimestamps)
{
    EXPECT_EQ(runGoldenEcho(false).stamps, kSeedStamps);
}

/**
 * Stamping enabled: the *same* golden timestamps — the collector is
 * pure metadata — and every span carries all ten stages, monotone,
 * with stage deltas telescoping exactly to the end-to-end latency.
 */
TEST(SpanGolden, CollectorIsMetadataOnlyAndStampsEveryStage)
{
    GoldenResult r = runGoldenEcho(true);
    EXPECT_EQ(r.stamps, kSeedStamps);

    EXPECT_EQ(r.finished, 5u);
    ASSERT_EQ(r.spans.size(), 5u);
    for (const sim::RequestSpan &span : r.spans) {
        sim::Tick prev = 0;
        for (std::size_t i = 0; i < sim::kNumStages; ++i) {
            auto st = static_cast<Stage>(i);
            ASSERT_TRUE(span.stamped(st))
                << "span " << span.id << " missing stage "
                << sim::stageName(st);
            EXPECT_GE(span.at(st), prev)
                << "span " << span.id << " stage "
                << sim::stageName(st) << " not monotone";
            prev = span.at(st);
        }
        // Telescoping: deltas between consecutive stamped stages sum
        // to exactly ClientRx - ClientTx.
        sim::Tick deltaSum = 0;
        for (std::size_t i = 1; i < sim::kNumStages; ++i)
            deltaSum += span.at(static_cast<Stage>(i)) -
                        span.at(static_cast<Stage>(i - 1));
        EXPECT_EQ(deltaSum, span.at(Stage::ClientRx) -
                                span.at(Stage::ClientTx));
    }

    // Aggregate identity over the histograms as well.
    double stageSum = 0.0;
    for (std::size_t i = 1; i < sim::kNumStages; ++i) {
        EXPECT_EQ(r.stageCount[i], 5u)
            << sim::stageName(static_cast<Stage>(i));
        stageSum += r.stageSum[i];
    }
    EXPECT_EQ(stageSum, r.totalSum);
    EXPECT_EQ(r.totalCount, 5u);

    // The export of a real run also round-trips: 5 spans x 9 stage
    // events each.
    jsonlite::Value doc = jsonlite::parse(r.traceJson);
    EXPECT_EQ(doc.at("traceEvents").items.size(), 45u);
}
