/**
 * @file
 * Tests for accelerator-side dynamic request batching: the
 * occupancy-aware GPU cost model (batchedDuration / batchedLaunch),
 * batched gio I/O (recvBatch / tryRecvBatch / sendBatch), the
 * bit-identical batched LeNet and LBP compute paths, the batched
 * service loops, the vector-scale tail-byte regression, and — most
 * importantly — that defaults (and even batching ON under serial
 * load) reproduce the seed LeNet timestamps exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "apps/kvstore.hh"
#include "apps/lbp.hh"
#include "apps/lenet.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "lynx/mqueue.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::GioMessage;
using lynx::core::GioTxItem;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SnicMqueue;

namespace {

struct Rig
{
    explicit Rig(std::uint32_t slotBytes = 256)
        : layout{0, 8, slotBytes}
    {
    }

    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout;
};

std::vector<std::uint8_t>
randomPayload(sim::Rng &rng, std::size_t maxLen)
{
    std::vector<std::uint8_t> p(1 + rng.below(maxLen));
    for (auto &b : p)
        b = static_cast<std::uint8_t>(rng.below(256));
    return p;
}

} // namespace

/*
 * ----- GPU cost model -----
 */

TEST(GpuBatching, ConfigDefaultsMatchCalibrationConstants)
{
    accel::GpuConfig cfg;
    EXPECT_EQ(cfg.batchMarginalItemCost,
              calibration::gpuBatchMarginalItemCost);
    EXPECT_EQ(cfg.batchOccupancySaturation,
              calibration::gpuBatchOccupancySaturation);
}

TEST(GpuBatching, BatchedDurationModelShape)
{
    sim::Simulator s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    const sim::Tick d = 10000;

    // n = 1 reproduces the unbatched duration exactly.
    EXPECT_EQ(gpu.batchedDuration(d, 1), d);

    // Monotone in n, and sublinear below the saturation point.
    const int sat = gpu.config().batchOccupancySaturation;
    sim::Tick prev = gpu.batchedDuration(d, 1);
    for (int n = 2; n <= sat; ++n) {
        sim::Tick cur = gpu.batchedDuration(d, n);
        EXPECT_GE(cur, prev) << "n=" << n;
        EXPECT_LT(cur, d * static_cast<sim::Tick>(n)) << "n=" << n;
        prev = cur;
    }
    // Past saturation every extra item costs full serial time.
    EXPECT_EQ(gpu.batchedDuration(d, sat + 3),
              gpu.batchedDuration(d, sat) + 3 * d);
}

TEST(GpuBatching, BatchedLaunchTickExactWithDeviceLaunchAtN1)
{
    sim::Simulator s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    sim::Tick dPlain = 0, dBatched = 0;
    auto run = [&]() -> sim::Task {
        sim::Tick t0 = s.now();
        co_await gpu.deviceLaunch(4, 5_us);
        dPlain = s.now() - t0;
        t0 = s.now();
        co_await gpu.batchedLaunch(4, 5_us, 1);
        dBatched = s.now() - t0;
    };
    sim::spawn(s, run());
    s.run();
    EXPECT_GT(dPlain, 0u);
    EXPECT_EQ(dPlain, dBatched);
    EXPECT_EQ(gpu.stats().counterValue("batched_items"), 1u);
}

/*
 * ----- Bit-identical batched compute -----
 */

TEST(GpuBatching, LenetForwardBatchBitIdenticalToScalarForward)
{
    apps::LeNet net;
    std::vector<std::vector<std::uint8_t>> imgs;
    for (int i = 0; i < 13; ++i)
        imgs.push_back(workload::synthMnist(i % 10,
                                            static_cast<std::uint64_t>(i)));
    std::vector<std::span<const std::uint8_t>> spans(imgs.begin(),
                                                     imgs.end());
    // Every batch size from 1 to 13.
    for (std::size_t n = 1; n <= imgs.size(); ++n) {
        auto batched = net.forwardBatch(
            std::span<const std::span<const std::uint8_t>>(spans).first(
                n));
        ASSERT_EQ(batched.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            auto scalar = net.forward(imgs[i]);
            // Bit-exact: a batch runs the per-image pass.
            EXPECT_EQ(std::memcmp(batched[i].data(), scalar.data(),
                                  sizeof scalar),
                      0)
                << "batch " << n << " image " << i;
        }
    }
    auto digits = net.classifyBatch(spans);
    for (std::size_t i = 0; i < imgs.size(); ++i)
        EXPECT_EQ(digits[i], net.classify(imgs[i])) << "image " << i;
}

TEST(GpuBatching, LbpBatchBitIdenticalToScalar)
{
    std::vector<std::vector<std::uint8_t>> probes, enrolled;
    for (std::uint32_t i = 0; i < 9; ++i) {
        probes.push_back(workload::synthFace(i, 1));
        enrolled.push_back(
            workload::synthFace(i % 3 == 0 ? i : i + 5, 0));
    }
    std::vector<apps::LbpPair> pairs;
    for (std::size_t i = 0; i < probes.size(); ++i)
        pairs.push_back({probes[i], enrolled[i]});
    auto dist = apps::lbpDistanceBatch(pairs, 32, 32);
    auto ver = apps::lbpVerifyBatch(pairs, 32, 32,
                                    apps::faceVerThreshold);
    ASSERT_EQ(dist.size(), pairs.size());
    bool sawMatch = false, sawMismatch = false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(dist[i],
                  apps::lbpDistance(probes[i], enrolled[i], 32, 32))
            << "pair " << i;
        bool scalar = apps::lbpVerify(probes[i], enrolled[i], 32, 32,
                                      apps::faceVerThreshold);
        EXPECT_EQ(ver[i] != 0, scalar) << "pair " << i;
        (scalar ? sawMatch : sawMismatch) = true;
    }
    EXPECT_TRUE(sawMatch);
    EXPECT_TRUE(sawMismatch);
}

/*
 * ----- Batched gio I/O -----
 */

/** recvBatch must deliver every message intact and in order over a
 *  tiny ring (constant wrap + flow control), with the batch counters
 *  proving multi-message sweeps happened. */
TEST(GpuBatching, RecvBatchFidelityAcrossWrapAndFlowControl)
{
    Rig r;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(17);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 40; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto push = [&]() -> sim::Task {
        std::size_t next = 0;
        while (next < msgs.size()) {
            std::size_t n = std::min<std::size_t>(
                1 + rng.below(5), msgs.size() - next);
            std::vector<SnicMqueue::RxItem> items;
            for (std::size_t j = 0; j < n; ++j)
                items.push_back({msgs[next + j],
                                 static_cast<std::uint32_t>(next + j),
                                 0});
            next += co_await mq.rxPushBatch(r.core, items);
            co_await sim::sleep(2_us);
        }
    };
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint32_t> gotTags;
    auto drain = [&]() -> sim::Task {
        while (got.size() < msgs.size()) {
            std::vector<GioMessage> batch = co_await gio.recvBatch(4);
            EXPECT_GE(batch.size(), 1u);
            EXPECT_LE(batch.size(), 4u);
            for (auto &m : batch) {
                got.push_back(std::move(m.payload));
                gotTags.push_back(m.tag);
            }
        }
    };
    sim::spawn(r.s, push());
    sim::spawn(r.s, drain());
    r.s.run();

    ASSERT_EQ(got.size(), msgs.size());
    EXPECT_EQ(got, msgs);
    for (std::size_t i = 0; i < gotTags.size(); ++i)
        EXPECT_EQ(gotTags[i], i);
    std::uint64_t recvs = gio.stats().counterValue("batch.recvs");
    EXPECT_GT(recvs, 0u);
    EXPECT_EQ(gio.stats().counterValue("batch.recv_msgs"), msgs.size());
    EXPECT_LT(recvs, msgs.size()); // real multi-message sweeps
}

/** sendBatch must commit every response intact and in order through
 *  ring wrap and flow control, pairing with the SNIC's pollTxBatch. */
TEST(GpuBatching, SendBatchFidelityAcrossWrapAndFlowControl)
{
    Rig r;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(29);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 30; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto accelSend = [&]() -> sim::Task {
        std::size_t next = 0;
        while (next < msgs.size()) {
            std::size_t n = std::min<std::size_t>(
                1 + rng.below(11), msgs.size() - next);
            std::vector<GioTxItem> items;
            for (std::size_t j = 0; j < n; ++j)
                items.push_back(
                    {static_cast<std::uint32_t>(next + j),
                     msgs[next + j], 0});
            // An 11-item batch over an 8-slot ring forces both the
            // wrap split and the flow-control stall inside one call.
            co_await gio.sendBatch(items);
            next += n;
        }
    };
    std::vector<core::TxMessage> popped;
    auto snicDrain = [&]() -> sim::Task {
        while (popped.size() < msgs.size()) {
            auto batch = co_await mq.pollTxBatch(r.core, 8);
            for (auto &m : batch)
                popped.push_back(std::move(m));
            co_await mq.commitTxCons(r.core);
            if (batch.empty())
                co_await sim::sleep(2_us);
        }
    };
    sim::spawn(r.s, accelSend());
    sim::spawn(r.s, snicDrain());
    r.s.run();

    ASSERT_EQ(popped.size(), msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(popped[i].payload, msgs[i]) << "message " << i;
        EXPECT_EQ(popped[i].tag, i);
    }
    EXPECT_GT(gio.stats().counterValue("batch.sends"), 0u);
    EXPECT_EQ(gio.stats().counterValue("batch.send_msgs"), msgs.size());
}

/** A batch of one is a batch: send() is a one-item sendBatch(), and
 *  each commit writes exactly encodeSlotWrite()'s bytes at
 *  slotWriteOffset() — the seed's single-slot TX image. */
TEST(GpuBatching, OneItemSendBatchWritesTheSingleSlotImage)
{
    Rig r;
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(41);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::uint32_t i = 0; i < r.layout.slots; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto accelSend = [&]() -> sim::Task {
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            auto tag = static_cast<std::uint32_t>(100 + i);
            auto err = static_cast<std::uint32_t>(i % 2);
            if (i % 2 == 0) {
                co_await gio.send(tag, msgs[i], err);
            } else {
                GioTxItem item{tag, msgs[i], err};
                co_await gio.sendBatch({&item, 1});
            }
        }
    };
    sim::spawn(r.s, accelSend());
    r.s.run();

    for (std::size_t i = 0; i < msgs.size(); ++i) {
        core::SlotMeta meta;
        meta.len = static_cast<std::uint32_t>(msgs[i].size());
        meta.tag = static_cast<std::uint32_t>(100 + i);
        meta.err = static_cast<std::uint32_t>(i % 2);
        meta.seq = static_cast<std::uint32_t>(i + 1);
        std::vector<std::uint8_t> want =
            core::encodeSlotWrite(msgs[i], meta);
        std::vector<std::uint8_t> got(want.size());
        r.mem.read(core::slotWriteOffset(r.layout.txSlotEnd(i), meta.len),
                   std::span<std::uint8_t>(got));
        EXPECT_EQ(got, want) << "slot " << i;
    }
    EXPECT_EQ(gio.stats().counterValue("batch.sends"), msgs.size());
    EXPECT_EQ(gio.stats().counterValue("batch.send_msgs"), msgs.size());
}

/** tryRecvBatch never parks: empty ring means an empty result after
 *  one poll, and staged surplus comes back without re-polling. */
TEST(GpuBatching, TryRecvBatchIsNonBlocking)
{
    Rig r;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    std::vector<std::vector<std::uint8_t>> msgs(
        4, std::vector<std::uint8_t>(32, 0xab));
    auto run = [&]() -> sim::Task {
        // Nothing ready: returns empty, does not park.
        std::vector<GioMessage> none = co_await gio.tryRecvBatch(4);
        EXPECT_TRUE(none.empty());
        std::vector<SnicMqueue::RxItem> items;
        for (std::size_t j = 0; j < msgs.size(); ++j)
            items.push_back(
                {msgs[j], static_cast<std::uint32_t>(j), 0});
        co_await mq.rxPushBatch(r.core, items);
        co_await sim::sleep(20_us);
        // 4 ready, capped at 2; the surplus stays staged...
        std::vector<GioMessage> first = co_await gio.tryRecvBatch(2);
        EXPECT_EQ(first.size(), 2u);
        // ...and is handed out by the next call.
        std::vector<GioMessage> rest = co_await gio.tryRecvBatch(4);
        EXPECT_EQ(rest.size(), 2u);
        EXPECT_EQ(first[0].tag, 0u);
        EXPECT_EQ(rest[1].tag, 3u);
    };
    sim::spawn(r.s, run());
    r.s.run();
}

/*
 * ----- Vector-scale tail regression -----
 */

/** A 1417-byte payload (354 u32 elements + 1 trailing byte) must
 *  come back with every element scaled AND the trailing byte carried
 *  through unchanged — it used to be zeroed. */
TEST(GpuBatching, VectorScaleCarriesNonMultipleOf4TailUnchanged)
{
    Rig r(2048); // roomy slots: the payload is 1417 bytes
    sim::Simulator &s = r.s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    SnicMqueue mq(s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(s, "gio", r.mem, r.layout);
    sim::spawn(s, apps::runVectorScaleBlock(gpu, gio, 3, 0));

    std::vector<std::uint8_t> payload(1417);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);

    std::vector<std::uint8_t> reply;
    auto run = [&]() -> sim::Task {
        while (!co_await mq.rxPush(r.core, payload, 1))
            co_await sim::sleep(2_us);
        while (reply.empty()) {
            auto popped = co_await mq.pollTxBatch(r.core, 1);
            if (!popped.empty()) {
                reply = std::move(popped[0].payload);
                co_await mq.commitTxCons(r.core);
            } else {
                co_await sim::sleep(2_us);
            }
        }
    };
    sim::spawn(s, run());
    s.runUntil(10_ms);

    ASSERT_EQ(reply.size(), payload.size());
    for (std::size_t i = 0; i + 3 < payload.size(); i += 4) {
        std::uint32_t v = static_cast<std::uint32_t>(payload[i]) |
                          (static_cast<std::uint32_t>(payload[i + 1])
                           << 8) |
                          (static_cast<std::uint32_t>(payload[i + 2])
                           << 16) |
                          (static_cast<std::uint32_t>(payload[i + 3])
                           << 24);
        v *= 3;
        EXPECT_EQ(reply[i], static_cast<std::uint8_t>(v));
        EXPECT_EQ(reply[i + 3], static_cast<std::uint8_t>(v >> 24));
    }
    EXPECT_EQ(reply[1416], payload[1416]); // the tail byte survives
}

/*
 * ----- Golden seed equivalence + batched service e2e -----
 */

namespace {

/** Five sequential LeNet requests through the full Lynx-on-host
 *  runtime; returns the client-side completion timestamps and
 *  digits. */
void
runSerialLenet(const apps::LenetServiceConfig &lcfg,
               std::vector<sim::Tick> &stamps,
               std::vector<int> &digits)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores,
                                                      server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model, lcfg));
    rt.start();

    net::Endpoint &ep = client.bind(net::Protocol::Udp, 30000);
    auto clientTask = [&]() -> sim::Task {
        for (int i = 0; i < 5; ++i) {
            net::Message m;
            m.src = {client.node(), 30000};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = workload::synthMnist(
                i % 10, static_cast<std::uint64_t>(i));
            co_await client.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            digits.push_back(r.payload.empty() ? -1 : r.payload[0]);
            stamps.push_back(s.now());
        }
    };
    sim::spawn(s, clientTask());
    s.runUntil(10_ms);
}

const std::vector<sim::Tick> kSeedLenetStamps{296027, 592054, 888081,
                                              1184108, 1480135};
const std::vector<int> kSeedLenetDigits{3, 4, 4, 8, 4};

} // namespace

/** Golden guard: with batching at its defaults the seed LeNet
 *  timestamps (captured before this extension landed) reproduce
 *  bit-exactly. Any timing drift in the default paths fails here. */
TEST(GpuBatching, DefaultsReproduceSeedLenetTimestampsExactly)
{
    std::vector<sim::Tick> stamps;
    std::vector<int> digits;
    runSerialLenet({}, stamps, digits);
    EXPECT_EQ(stamps, kSeedLenetStamps);
    EXPECT_EQ(digits, kSeedLenetDigits);
}

/** The lone-request fast path: batching ON under serial load serves
 *  each request immediately (no linger) and — because recvBatch,
 *  batchedLaunch(n=1) and sendBatch(1) are tick-exact with their
 *  unbatched counterparts — reproduces the seed timestamps exactly. */
TEST(GpuBatching, BatchingOnServesLoneRequestsAtSeedTimestamps)
{
    apps::LenetServiceConfig lcfg;
    lcfg.batch.maxBatch = 8;
    lcfg.batch.linger = 100_us;
    std::vector<sim::Tick> stamps;
    std::vector<int> digits;
    runSerialLenet(lcfg, stamps, digits);
    EXPECT_EQ(stamps, kSeedLenetStamps);
    EXPECT_EQ(digits, kSeedLenetDigits);
}

/** Batched LeNet service end to end: concurrent clients, responses
 *  verified byte-for-byte against the model, real batches formed. */
TEST(GpuBatching, BatchedLenetServiceAnswersByteForByte)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &clientNic = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores,
                                                      server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    apps::LenetServiceConfig lcfg;
    lcfg.batch.maxBatch = 8;
    lcfg.batch.linger = 20_us;
    sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model, lcfg));
    rt.start();

    constexpr int kClients = 10;
    constexpr int kPerClient = 8;
    int done = 0;
    auto clientTask = [&](int c) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(41000 + c);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int i = 0; i < kPerClient; ++i) {
            std::uint64_t v = static_cast<std::uint64_t>(c * 100 + i);
            auto img = workload::synthMnist((c + i) % 10, v);
            int expected = model.classify(img);
            net::Message m;
            m.src = {clientNic.node(), port};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = img;
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            EXPECT_EQ(r.payload.empty() ? -1 : r.payload[0], expected)
                << "client " << c << " request " << i;
            ++done;
        }
    };
    for (int c = 0; c < kClients; ++c)
        sim::spawn(s, clientTask(c));
    s.runUntil(200_ms);

    EXPECT_EQ(done, kClients * kPerClient);
    // Real batches formed: more messages than sweeps, and the GPU saw
    // multi-item launches.
    std::uint64_t recvs = queues[0]->stats().counterValue("batch.recvs");
    std::uint64_t msgs =
        queues[0]->stats().counterValue("batch.recv_msgs");
    EXPECT_GT(recvs, 0u);
    EXPECT_GT(msgs, recvs);
    EXPECT_GT(gpu.stats().counterValue("batched_items"),
              gpu.stats().counterValue("device_launches"));
}

/** A malformed request inside a batch is answered per-message with
 *  err=1 / 0xff while its batchmates classify normally. */
TEST(GpuBatching, MalformedRequestInsideBatchAnsweredIndividually)
{
    Rig r(2048); // 784-byte images need more than 256-byte slots
    sim::Simulator &s = r.s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;
    SnicMqueue mq(s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(s, "gio", r.mem, r.layout);
    apps::LenetServiceConfig lcfg;
    lcfg.batch.maxBatch = 4;
    sim::spawn(s, apps::runLenetServer(gpu, gio, model, lcfg));

    auto good0 = workload::synthMnist(7, 1);
    std::vector<std::uint8_t> bad(100, 0x5a); // not 784 bytes
    auto good1 = workload::synthMnist(2, 2);

    std::vector<core::TxMessage> replies;
    auto run = [&]() -> sim::Task {
        std::vector<SnicMqueue::RxItem> items;
        items.push_back({good0, 10, 0});
        items.push_back({bad, 11, 0});
        items.push_back({good1, 12, 0});
        co_await mq.rxPushBatch(r.core, items);
        while (replies.size() < 3) {
            auto batch = co_await mq.pollTxBatch(r.core, 8);
            for (auto &m : batch)
                replies.push_back(std::move(m));
            co_await mq.commitTxCons(r.core);
            if (batch.empty())
                co_await sim::sleep(5_us);
        }
    };
    sim::spawn(s, run());
    s.runUntil(50_ms);

    ASSERT_EQ(replies.size(), 3u);
    EXPECT_EQ(replies[0].tag, 10u);
    EXPECT_EQ(replies[0].err, 0u);
    EXPECT_EQ(replies[0].payload[0], model.classify(good0));
    EXPECT_EQ(replies[1].tag, 11u);
    EXPECT_EQ(replies[1].err, 1u);
    EXPECT_EQ(replies[1].payload[0], 0xff);
    EXPECT_EQ(replies[2].tag, 12u);
    EXPECT_EQ(replies[2].err, 0u);
    EXPECT_EQ(replies[2].payload[0], model.classify(good1));
}

/*
 * ----- Batched face verification -----
 */

namespace {

constexpr int kFaceClients = 4;
constexpr int kFacePerClient = 6;

/** The enrolled database: one reference face per person 0..7. */
apps::KvStore
faceDb()
{
    apps::KvStore db;
    for (std::uint32_t person = 0; person < 8; ++person)
        db.set(workload::faceLabel(person),
               workload::synthFace(person, 0));
    return db;
}

/** Request @p i of client @p c: genuine and impostor probes, plus one
 *  unknown label per client. */
std::vector<std::uint8_t>
faceRequest(int c, int i)
{
    std::uint32_t claim = static_cast<std::uint32_t>((c + i) % 8);
    bool genuine = i % 3 != 2;
    std::uint32_t probe = genuine ? claim : (claim + 3) % 8;
    std::string label = (i == 4) ? std::string("nobody-here!")
                                 : workload::faceLabel(claim);
    auto img =
        workload::synthFace(probe, 1 + static_cast<std::uint64_t>(i));
    std::vector<std::uint8_t> req(label.begin(), label.end());
    req.insert(req.end(), img.begin(), img.end());
    return req;
}

/** Run the two-tier face-verification world and return the response
 *  byte of every (client, request) cell. */
std::vector<std::uint8_t>
runFaceVer(apps::ServiceBatchConfig batch, std::uint64_t *batchRecvs)
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    net::Nic &clientNic = network.addNic("client");
    host::Node dbHost(s, network, "db-host");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    apps::KvStore db = faceDb();
    apps::KvServerConfig kvCfg;
    kvCfg.nic = &dbHost.nic();
    kvCfg.proto = net::Protocol::Tcp;
    kvCfg.stack = calibration::vmaXeon();
    kvCfg.cores = {&dbHost.cores()[0]};
    kvCfg.opCost = calibration::memcachedOpCostXeon;
    apps::KvServer kvServer(s, db, kvCfg);
    kvServer.start();

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "facever";
    scfg.port = 7100;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    auto serverQs = rt.makeAccelQueues(svc, accel);
    auto dbRef = rt.addClientQueue(accel, "db.cq",
                                   {dbHost.id(), kvCfg.port},
                                   net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(dbRef);
    sim::spawn(s, apps::runFaceVerWorker(gpu, *serverQs[0], *dbQ,
                                         batch));
    rt.start();

    std::vector<std::uint8_t> answers(
        static_cast<std::size_t>(kFaceClients * kFacePerClient), 0xee);
    auto clientTask = [&](int c) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(42000 + c);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int i = 0; i < kFacePerClient; ++i) {
            net::Message m;
            m.src = {clientNic.node(), port};
            m.dst = {bf.node(), 7100};
            m.proto = net::Protocol::Udp;
            m.payload = faceRequest(c, i);
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            answers[static_cast<std::size_t>(c * kFacePerClient + i)] =
                r.payload.empty() ? 0xee : r.payload[0];
        }
    };
    for (int c = 0; c < kFaceClients; ++c)
        sim::spawn(s, clientTask(c));
    s.runUntil(300_ms);

    if (batchRecvs)
        *batchRecvs =
            serverQs[0]->stats().counterValue("batch.recvs");
    return answers;
}

} // namespace

/** The worker (batched GETs via dbQ sendBatch, one batched LBP
 *  kernel, batched replies) answers every request with faceVerDecide()
 *  on the request and its enrolled image, at batch 4 and at batch 1
 *  alike. */
TEST(GpuBatching, BatchedFaceVerMatchesUnbatchedByteForByte)
{
    apps::KvStore db = faceDb();
    std::vector<std::uint8_t> expected;
    for (int c = 0; c < kFaceClients; ++c) {
        for (int i = 0; i < kFacePerClient; ++i) {
            std::vector<std::uint8_t> req = faceRequest(c, i);
            std::string label(req.begin(),
                              req.begin() + apps::faceVerLabelBytes);
            expected.push_back(static_cast<std::uint8_t>(
                apps::faceVerDecide(req, db.get(label))));
        }
    }
    std::vector<std::uint8_t> unbatched = runFaceVer({}, nullptr);
    std::uint64_t recvs = 0;
    apps::ServiceBatchConfig bcfg;
    bcfg.maxBatch = 4;
    bcfg.linger = 20_us;
    std::vector<std::uint8_t> batched = runFaceVer(bcfg, &recvs);
    EXPECT_EQ(unbatched, expected);
    EXPECT_EQ(batched, expected);
    EXPECT_GT(recvs, 0u);
    // Every outcome class must actually occur in the pattern.
    auto count = [&](apps::FaceVerResult v) {
        return std::count(batched.begin(), batched.end(),
                          static_cast<std::uint8_t>(v));
    };
    EXPECT_GT(count(apps::FaceVerResult::Match), 0);
    EXPECT_GT(count(apps::FaceVerResult::NoMatch), 0);
    EXPECT_GT(count(apps::FaceVerResult::UnknownLabel), 0);
}

/** Every service rejects a batch cap below one at entry: 0 would
 *  reach recvBatch(0) and a negative cap a huge reserve. */
TEST(GpuBatchingDeathTest, ServicesRejectNonPositiveMaxBatch)
{
    auto runEcho = [](int maxBatch) {
        Rig r;
        pcie::Fabric fabric(r.s, "pcie");
        accel::Gpu gpu(r.s, "gpu", fabric);
        AccelQueue gio(r.s, "gio", r.mem, r.layout);
        apps::ServiceBatchConfig b;
        b.maxBatch = maxBatch;
        sim::spawn(r.s, apps::runEchoBlock(gpu, gio, 0, 0, b));
        r.s.run();
    };
    auto runLenet = [](int maxBatch) {
        Rig r;
        pcie::Fabric fabric(r.s, "pcie");
        accel::Gpu gpu(r.s, "gpu", fabric);
        AccelQueue gio(r.s, "gio", r.mem, r.layout);
        apps::LeNet net;
        apps::LenetServiceConfig cfg;
        cfg.batch.maxBatch = maxBatch;
        sim::spawn(r.s, apps::runLenetServer(gpu, gio, net, cfg));
        r.s.run();
    };
    auto runFace = [](int maxBatch) {
        Rig r;
        pcie::Fabric fabric(r.s, "pcie");
        accel::Gpu gpu(r.s, "gpu", fabric);
        AccelQueue serverQ(r.s, "server", r.mem, r.layout);
        AccelQueue dbQ(r.s, "db", r.mem,
                       MqueueLayout{r.layout.totalBytes(), 8, 256});
        apps::ServiceBatchConfig b;
        b.maxBatch = maxBatch;
        sim::spawn(r.s, apps::runFaceVerWorker(gpu, serverQ, dbQ, b));
        r.s.run();
    };
    for (int bad : {0, -3}) {
        EXPECT_DEATH(runEcho(bad), "maxBatch must be >= 1");
        EXPECT_DEATH(runLenet(bad), "maxBatch must be >= 1");
        EXPECT_DEATH(runFace(bad), "maxBatch must be >= 1");
    }
}
