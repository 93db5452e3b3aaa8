/**
 * @file
 * Property tests of the congestion plane (DESIGN.md §8): DCQCN
 * reaction-point invariants under arbitrary CNP/query sequences,
 * CongestionPoint queue-model invariants (a message is never both
 * ECN-marked and dropped by the same queue; an uncongested port is
 * seed-independent), and the
 * SnicMqueue PFC machinery (pause/resume always pair, the storm
 * guard fails over to the counted drop path, and full rings without
 * PFC count `overflow` instead of failing silently).
 */

#include <gtest/gtest.h>

#include <vector>

#include "lynx/gio.hh"
#include "lynx/snic_mqueue.hh"
#include "net/congestion.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::GioMessage;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SnicMqueue;
using lynx::core::SnicMqueueConfig;
using lynx::net::CongestionPoint;
using lynx::net::Dcqcn;
using lynx::net::DcqcnConfig;

namespace {

void
expectDcqcnInvariants(const Dcqcn &d)
{
    EXPECT_GE(d.rateGbps(), d.config().minRateGbps);
    EXPECT_LE(d.rateGbps(), d.config().lineRateGbps);
    EXPECT_GE(d.alpha(), 0.0);
    EXPECT_LE(d.alpha(), 1.0);
    EXPECT_LE(d.targetGbps(), d.config().lineRateGbps);
}

} // namespace

/*
 * ----- DCQCN reaction point -----
 */

/** rate ∈ [minRate, lineRate] and alpha ∈ [0, 1] must hold after
 *  every transition, whatever order CNPs and rate queries arrive
 *  in — including adversarial bursts and long silences. */
TEST(DcqcnProperties, InvariantsUnderRandomEventSequences)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed);
        DcqcnConfig cfg;
        cfg.lineRateGbps = 0.5 + 0.5 * static_cast<double>(seed);
        cfg.minRateGbps = cfg.lineRateGbps / 64.0;
        Dcqcn d(cfg, 0);
        sim::Tick now = 0;
        for (int ev = 0; ev < 400; ++ev) {
            // Gaps from back-to-back to multi-epoch silences.
            now += rng.below(500_us);
            if (rng.chance(0.5))
                d.onCnp(now);
            else
                d.rateAt(now);
            expectDcqcnInvariants(d);
        }
    }
}

/** A blast of back-to-back CNPs pins the rate at the floor — never
 *  below it, never to zero. */
TEST(DcqcnProperties, CnpBlastStopsAtRateFloor)
{
    DcqcnConfig cfg;
    Dcqcn d(cfg, 0);
    for (int i = 0; i < 200; ++i) {
        d.onCnp(static_cast<sim::Tick>(i) * 1_us);
        expectDcqcnInvariants(d);
    }
    EXPECT_DOUBLE_EQ(d.rateGbps(), cfg.minRateGbps);
    EXPECT_EQ(d.cuts(), 200u);
}

/** A long CNP-free period recovers the flow all the way back to (and
 *  never past) line rate, and decays alpha toward zero. */
TEST(DcqcnProperties, QuietPeriodRecoversToLineRate)
{
    DcqcnConfig cfg;
    Dcqcn d(cfg, 0);
    for (int i = 0; i < 50; ++i)
        d.onCnp(static_cast<sim::Tick>(i) * 10_us);
    double cutRate = d.rateGbps();
    EXPECT_LT(cutRate, cfg.lineRateGbps);
    double highAlpha = d.alpha();

    // Hyper increase adds haiGbps per epoch once past 2F epochs, so
    // a second's silence dwarfs the line rate's worth of recovery.
    EXPECT_DOUBLE_EQ(d.rateAt(1'000_ms), cfg.lineRateGbps);
    EXPECT_LT(d.alpha(), highAlpha * 0.01);
    EXPECT_GE(d.alpha(), 0.0);
    EXPECT_GT(d.increases(), 0u);
}

/** Recovery between two observations is monotonic: the allowed rate
 *  never decreases without a CNP. */
TEST(DcqcnProperties, RateRecoveryIsMonotoneWithoutCnps)
{
    Dcqcn d({}, 0);
    for (int i = 0; i < 20; ++i)
        d.onCnp(static_cast<sim::Tick>(i) * 5_us);
    double prev = d.rateGbps();
    for (sim::Tick t = 100_us; t <= 20_ms; t += 100_us) {
        double r = d.rateAt(t);
        EXPECT_GE(r, prev);
        prev = r;
    }
}

/** paceTime is the serialization time at the current allowed rate. */
TEST(DcqcnProperties, PaceTimeMatchesAllowedRate)
{
    Dcqcn d({}, 0);
    d.onCnp(1_us);
    sim::Tick now = 2_us;
    double rate = d.rateAt(now);
    sim::Tick pace = d.paceTime(4096, now);
    EXPECT_EQ(pace, static_cast<sim::Tick>(4096.0 * 8.0 / rate));
}

/*
 * ----- CongestionPoint queue model -----
 */

/** No verdict may ever carry both marked and dropped: tail-drop
 *  short-circuits the marking draw. Hammered across seeds with a
 *  queue small enough that both outcomes are common. */
TEST(CongestionPointProperties, NeverBothMarkedAndDropped)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        CongestionPoint::Config cfg;
        cfg.gbps = 1.0;
        cfg.queueBytes = 16 * 1024;
        cfg.kminBytes = 2 * 1024;
        cfg.kmaxBytes = 8 * 1024;
        cfg.pmax = 0.5;
        cfg.seed = seed;
        CongestionPoint port(cfg);
        sim::Rng rng(seed * 977);
        sim::Tick arrival = 0;
        std::uint64_t marks = 0, drops = 0;
        for (int i = 0; i < 2000; ++i) {
            arrival += rng.below(6_us); // ~2x overload at 1 Gb/s
            auto v = port.admit(1024, arrival);
            EXPECT_FALSE(v.marked && v.dropped);
            EXPECT_GE(v.start, arrival);
            marks += v.marked;
            drops += v.dropped;
        }
        // The sweep must actually exercise both outcomes for the
        // exclusion property to mean anything.
        EXPECT_GT(marks, 0u);
        EXPECT_GT(drops, 0u);
        EXPECT_EQ(port.marks(), marks);
        EXPECT_EQ(port.drops(), drops);
    }
}

/** An uncongested port (arrivals spaced at least a serialization
 *  apart) never marks, never drops, and never consults its Rng — so
 *  its verdicts are identical for any seed (the determinism contract
 *  behind the golden timestamps). */
TEST(CongestionPointProperties, UncongestedPortIsSeedIndependent)
{
    CongestionPoint::Config a;
    a.seed = 1;
    CongestionPoint::Config b = a;
    b.seed = 0xdeadbeef;
    CongestionPoint pa(a), pb(b);
    sim::Tick arrival = 0;
    for (int i = 0; i < 500; ++i) {
        arrival += pa.serialization(2048) + 1;
        auto va = pa.admit(2048, arrival);
        auto vb = pb.admit(2048, arrival);
        EXPECT_EQ(va.start, arrival);
        EXPECT_EQ(va.depthBytes, 0u);
        EXPECT_FALSE(va.marked || va.dropped);
        EXPECT_EQ(vb.start, va.start);
        EXPECT_EQ(vb.marked, va.marked);
        EXPECT_EQ(vb.dropped, va.dropped);
    }
}

/** The implicit queue drains at link rate: depth decays to zero over
 *  exactly the busy horizon. */
TEST(CongestionPointProperties, QueueDrainsAtLinkRate)
{
    CongestionPoint::Config cfg;
    cfg.gbps = 8.0;            // 1 byte/ns: depth math is exact
    cfg.queueBytes = 10'000;   // holds the whole 10 KB burst
    CongestionPoint port(cfg);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(port.admit(1000, 0).dropped);
    EXPECT_EQ(port.depthAt(0), 10'000u);
    EXPECT_EQ(port.depthAt(4'000), 6'000u);
    EXPECT_EQ(port.depthAt(10'000), 0u);
    EXPECT_EQ(port.depthAt(20'000), 0u);
}

/*
 * ----- PFC on SnicMqueue RX rings -----
 */

namespace {

struct Rig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout{0, 8, 256};
};

std::vector<std::uint8_t>
payload(int i)
{
    return std::vector<std::uint8_t>(32, static_cast<std::uint8_t>(i));
}

} // namespace

/** With PFC on and a (slow) consumer, a burst far larger than the
 *  ring is delivered in full: the pusher pauses instead of dropping,
 *  every pause is paired with a resume, and nothing overflows. */
TEST(PfcProperties, PauseAndResumeAlwaysPair)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.pfc.enabled = true;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    constexpr int kMsgs = 64; // 8x the ring
    int accepted = 0;
    auto push = [&]() -> sim::Task {
        for (int i = 0; i < kMsgs; ++i) {
            bool ok = co_await mq.rxPush(
                r.core, payload(i), static_cast<std::uint32_t>(i));
            accepted += ok;
        }
    };
    int drained = 0;
    auto drain = [&]() -> sim::Task {
        while (drained < kMsgs) {
            GioMessage m = co_await gio.recv();
            EXPECT_EQ(m.tag, static_cast<std::uint32_t>(drained));
            ++drained;
            co_await sim::sleep(5_us); // slower than the pusher
        }
    };
    sim::spawn(r.s, push());
    sim::spawn(r.s, drain());
    r.s.run();

    EXPECT_EQ(accepted, kMsgs);
    EXPECT_EQ(drained, kMsgs);
    EXPECT_FALSE(mq.rxPaused());
    EXPECT_EQ(mq.stats().counterValue("overflow"), 0u);
    std::uint64_t pauses = mq.stats().counterValue("pfc_pauses");
    EXPECT_GT(pauses, 0u);
    EXPECT_EQ(mq.stats().counterValue("pfc_resumes"), pauses);
    EXPECT_EQ(mq.stats().counterValue("pfc_storm_breaks"), 0u);
}

/** A dead consumer must not wedge the pusher forever: the storm
 *  guard breaks the pause episode after pauseTimeout and the push
 *  fails over to the counted drop path. Pause/resume still pair. */
TEST(PfcProperties, StormGuardBreaksPauseOnDeadConsumer)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.pfc.enabled = true;
    cfg.pfc.pauseTimeout = 50_us;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);

    int accepted = 0, rejected = 0;
    sim::Tick doneAt = 0;
    auto push = [&]() -> sim::Task {
        for (int i = 0; i < 12; ++i) { // ring holds 8
            bool ok = co_await mq.rxPush(
                r.core, payload(i), static_cast<std::uint32_t>(i));
            (ok ? accepted : rejected) += 1;
        }
        doneAt = r.s.now();
    };
    sim::spawn(r.s, push());
    r.s.run();

    EXPECT_EQ(accepted, 8);
    EXPECT_EQ(rejected, 4);
    EXPECT_FALSE(mq.rxPaused());
    EXPECT_EQ(mq.stats().counterValue("overflow"), 4u);
    EXPECT_EQ(mq.stats().counterValue("pfc_storm_breaks"), 4u);
    EXPECT_EQ(mq.stats().counterValue("pfc_pauses"),
              mq.stats().counterValue("pfc_resumes"));
    // Each rejected push ate one pauseTimeout episode, no more: the
    // guard bounds how long a dead accelerator can stall ingress.
    EXPECT_GE(doneAt, 4 * 50_us);
    EXPECT_LT(doneAt, 4 * 50_us + 100_us);
}

/** Regression (silent-overflow fix): with PFC off, pushes into a
 *  full ring return false AND count `overflow` — the seed used to
 *  report only `rx_full`, so ring-capacity drops were invisible to
 *  the drop-accounting dashboards. */
TEST(PfcProperties, OverflowCountedWithoutPfc)
{
    Rig r;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, {});

    int accepted = 0, rejected = 0;
    auto push = [&]() -> sim::Task {
        for (int i = 0; i < 11; ++i) { // ring holds 8
            bool ok = co_await mq.rxPush(
                r.core, payload(i), static_cast<std::uint32_t>(i));
            (ok ? accepted : rejected) += 1;
        }
    };
    sim::spawn(r.s, push());
    r.s.run();

    EXPECT_EQ(accepted, 8);
    EXPECT_EQ(rejected, 3);
    EXPECT_EQ(mq.stats().counterValue("overflow"), 3u);
    EXPECT_EQ(mq.stats().counterValue("rx_full"), 3u);
    EXPECT_EQ(mq.stats().counterValue("pfc_pauses"), 0u);
}

/** Same regression for the batched path: a batch that only partially
 *  fits counts the rejected remainder as overflow. */
TEST(PfcProperties, BatchOverflowCountsRejectedRemainder)
{
    Rig r;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, {});

    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < 13; ++i)
        bufs.push_back(payload(i));
    std::size_t accepted = 0;
    auto push = [&]() -> sim::Task {
        std::vector<SnicMqueue::RxItem> items;
        for (std::size_t i = 0; i < bufs.size(); ++i)
            items.push_back({bufs[i], static_cast<std::uint32_t>(i), 0});
        accepted = co_await mq.rxPushBatch(r.core, items);
    };
    sim::spawn(r.s, push());
    r.s.run();

    EXPECT_EQ(accepted, 8u); // ring capacity
    EXPECT_EQ(mq.stats().counterValue("overflow"), 13u - 8u);
}
