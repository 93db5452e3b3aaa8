/**
 * @file
 * The parallel tier: golden bit-exactness of the sharded engine.
 *
 * The load-bearing claim of DESIGN.md §11 is that a sharded run's
 * results are a pure function of (scenario, seed, shard count) — and
 * not of the worker thread count, the barrier interleaving, or the
 * staging mailbox arrival order. These tests pin that claim:
 *
 *  - a 4-machine echo cluster produces byte-identical fingerprints
 *    (per-generator ledgers + latency quantiles + the merged metrics
 *    JSON) across shards {1,2,4} x threads {1,2,4}, also with keyed
 *    fabric loss and egress tail-drop;
 *  - ten seeds of the same cluster under fault injection (drops,
 *    corruption, delay, a partition window) AND ECN/DCQCN congestion
 *    match between 1 worker and 4 workers at 4 shards;
 *  - unit cases cover the building blocks: the pre-lane, the
 *    conservative lower bound, cross-thread pool frees, key-sorted
 *    record drains, and window skipping.
 *
 * Sharded runs are compared against sharded runs only (shards=1
 * included): the serial engine samples fault/loss randomness
 * sequentially while the sharded fabric uses keyed draws, so the two
 * are each deterministic but not each other's golden.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "sim/time.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

constexpr unsigned kMachines = 4;

struct RunOpts
{
    unsigned shards = 1;
    unsigned threads = 1;
    std::uint64_t seed = 1;
    bool faults = false;
    bool congestion = false;
    /** Fabric loss (keyed per (src, dst, pair seq) when sharded). */
    double lossRate = 0.0;
    /** Egress-queue capacity when congestion is on; 0 keeps the
     *  default. A small one makes the ports tail-drop. */
    std::uint64_t egressQueueBytes = 0;
};

/** Echo server: swap the addresses, send the message back. */
sim::Task
echoLoop(net::Nic &nic, net::Endpoint &ep)
{
    for (;;) {
        net::Message m = co_await ep.recv();
        net::Address from = m.src;
        m.src = m.dst;
        m.dst = from;
        co_await nic.send(std::move(m));
    }
}

/**
 * Run the 4-machine cluster: machine m holds a server NIC (node 2m,
 * echo on port 7000) and a client NIC (node 2m+1) driving an open-loop
 * generator whose logical clients ring-route across the *other*
 * machines — every request and response crosses the fabric, and with
 * shards > 1 most of them cross shards too.
 *
 * @return a fingerprint of everything the run produced that must be a
 * pure function of (seed, scenario): per-generator conservation
 * ledgers, exact latency extrema and quantiles, the final clocks, and
 * the merged metrics snapshot (minus "sim.shard", which is execution
 * telemetry and legitimately varies with shard/thread count).
 */
std::string
runCluster(const RunOpts &o)
{
    sim::ShardedSim ss(o.shards, o.threads);

    net::NetworkConfig ncfg;
    // A wider wire than the LAN default amortizes the window barrier
    // on this tier's small runs; it is part of the scenario, so every
    // compared run uses the same value.
    ncfg.propagation = 5_us;
    if (o.congestion) {
        ncfg.congestion.enabled = true;
        ncfg.congestion.ecnEnabled = true;
        ncfg.congestion.dcqcnEnabled = true;
        // Shape the ports so a 256 B echo workload actually queues
        // and marks (the default band is sized for KB-scale flows).
        ncfg.congestion.portGbps = 0.5;
        ncfg.congestion.ecnKminBytes = 0;
        ncfg.congestion.ecnKmaxBytes = 2048;
        ncfg.congestion.ecnPmax = 0.5;
        if (o.egressQueueBytes != 0)
            ncfg.congestion.egressQueueBytes = o.egressQueueBytes;
    }
    ncfg.lossRate = o.lossRate;
    net::Network net(ss, ncfg);

    sim::FaultConfig fcfg;
    if (o.faults) {
        fcfg.dropRate = 0.005;
        fcfg.corruptRate = 0.005;
        fcfg.delayRate = 0.01;
        fcfg.delayMin = 5_us;
        fcfg.delayMax = 80_us;
        fcfg.seed = o.seed ^ 0xfau;
    }
    sim::FaultPlan plan(fcfg);
    if (o.faults) {
        // One scheduled partition: machine 0's server vanishes for
        // 4 ms mid-window, so lost/late/expired paths all exercise.
        plan.partition(0, sim::FaultPlan::kAnyNode, 8_ms, 12_ms);
        net.setFaultPlan(&plan);
    }

    std::vector<net::Nic *> servers(kMachines);
    std::vector<net::Nic *> clients(kMachines);
    std::vector<std::unique_ptr<workload::LoadGen>> gens;

    for (unsigned m = 0; m < kMachines; ++m) {
        sim::ShardedSim::Scope scope(ss, m % o.shards);
        servers[m] = &net.addNic("srv" + std::to_string(m));
        clients[m] = &net.addNic("cli" + std::to_string(m));
        net::Endpoint &ep = servers[m]->bind(net::Protocol::Udp, 7000);
        sim::spawn(servers[m]->simulator(), echoLoop(*servers[m], ep));
    }

    for (unsigned m = 0; m < kMachines; ++m) {
        sim::ShardedSim::Scope scope(ss, m % o.shards);
        workload::LoadGenConfig lc;
        lc.nic = clients[m];
        lc.target = {2 * ((m + 1) % kMachines), 7000};
        lc.openRate = 15000.0;
        lc.warmup = 2_ms;
        lc.duration = 12_ms;
        lc.drain = 2_ms;
        lc.openPorts = 4;
        lc.logicalClients = 32;
        lc.requestTimeout = 8_ms;
        lc.makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(256, 0x5a);
        };
        // Ring routing: client c on machine m talks to one of the
        // other three machines, chosen by its id — a pure function of
        // the topology, so it is identical across shard counts.
        lc.routeTarget = [m](std::uint64_t c) {
            return net::Address{
                2 * static_cast<std::uint32_t>((m + 1 + c % 3) %
                                               kMachines),
                7000};
        };
        lc.metricsName = "workload.loadgen.m" + std::to_string(m);
        lc.seed = o.seed * 100 + m;
        gens.push_back(std::make_unique<workload::LoadGen>(
            ss.shard(m % o.shards), lc));
        gens.back()->start();
    }

    sim::Tick deadline = gens[0]->windowEnd() + 8_ms + 1_ms;
    ss.runUntil(deadline);

    if (o.shards > 1) {
        // The scenario is built to cross shards; a zero here means the
        // fabric silently stopped staging and the test went vacuous.
        EXPECT_GT(ss.stats().counterValue("cross_msgs"), 0u)
            << "no cross-shard traffic at " << o.shards << " shards";
    }

    std::ostringstream os;
    for (unsigned m = 0; m < kMachines; ++m) {
        const workload::LoadGen &g = *gens[m];
        EXPECT_TRUE(g.conservationHolds()) << "machine " << m;
        os << "m" << m << " sent=" << g.sent()
           << " completed=" << g.completed()
           << " failed=" << g.windowValidationFailures()
           << " late=" << g.late() << " lost=" << g.lost()
           << " inflight=" << g.openInFlight()
           << " timeouts=" << g.timeouts()
           << " stale=" << g.staleResponses() << "\n";
        const sim::Histogram &h = g.latency();
        os << "m" << m << " lat count=" << h.count()
           << " min=" << h.min() << " max=" << h.max()
           << " sum=" << h.sum() << " p50=" << h.percentile(50)
           << " p99=" << h.percentile(99) << "\n";
    }
    os << "now=" << ss.shard(0).now() << "\n";
    sim::mergedJson(os,
                    sim::mergeRegistries(ss.registries(), "sim.shard"));
    return os.str();
}

/** The lossy scenario of the matrix: keyed fabric loss plus an
 *  egress queue of one and a half 256 B frames, so the sharded
 *  fabric's loss drop and its egress tail-drop both run. */
RunOpts
lossyOpts()
{
    return {.seed = 11,
            .congestion = true,
            .lossRate = 0.01,
            .egressQueueBytes = 384};
}

} // namespace

// ---------------------------------------------------------------------------
// Golden bit-exactness across the shard x thread matrix.

TEST(ShardedGolden, ClusterBitExactAcrossShardsAndThreads)
{
    for (RunOpts base : {RunOpts{.seed = 11}, lossyOpts()}) {
        SCOPED_TRACE("lossRate=" + std::to_string(base.lossRate));
        const std::string golden = runCluster(base);
        ASSERT_NE(golden.find("completed="), std::string::npos);
        for (unsigned shards : {1u, 2u, 4u}) {
            for (unsigned threads : {1u, 2u, 4u}) {
                if (shards == 1 && threads == 1)
                    continue;
                RunOpts o = base;
                o.shards = shards;
                o.threads = threads;
                EXPECT_EQ(golden, runCluster(o))
                    << "shards=" << shards << " threads=" << threads;
            }
        }
    }
}

TEST(ShardedGolden, LossAndEgressDropsActuallyFire)
{
    // The lossy matrix above would pass vacuously if neither drop
    // path ran; pin that both did.
    RunOpts o = lossyOpts();
    o.shards = 4;
    o.threads = 4;
    const std::string fp = runCluster(o);
    for (const char *key : {"\"dropped_in_fabric\":", "\"egress_drops\":"}) {
        const std::string k = key;
        EXPECT_NE(fp.find(k), std::string::npos) << k << "\n" << fp;
        EXPECT_EQ(fp.find(k + "0"), std::string::npos)
            << "expected nonzero " << k << " merged snapshot:\n"
            << fp;
    }
}

TEST(ShardedGolden, ClusterCompletesWork)
{
    // The matrix above would pass vacuously if nothing ever completed;
    // pin that the scenario does real work.
    const std::string fp =
        runCluster({.shards = 2, .threads = 2, .seed = 7});
    EXPECT_EQ(fp.find("completed=0 "), std::string::npos) << fp;
}

// ---------------------------------------------------------------------------
// Chaos: faults + congestion control, ten seeds, 1 vs 4 workers.

TEST(ShardedChaos, TenSeedsFaultsAndCongestionThreadInvariant)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        RunOpts serial{.shards = 4,
                       .threads = 1,
                       .seed = seed,
                       .faults = true,
                       .congestion = true};
        RunOpts parallel = serial;
        parallel.threads = 4;
        EXPECT_EQ(runCluster(serial), runCluster(parallel))
            << "seed " << seed;
    }
}

TEST(ShardedChaos, FaultsActuallyFire)
{
    // Rebuild one chaos run and check the merged fabric counters: the
    // partition window alone guarantees drops, so a zero means the
    // keyed judging path is disconnected and the chaos matrix above
    // proves nothing.
    const std::string fp = runCluster({.shards = 4,
                                       .threads = 4,
                                       .seed = 3,
                                       .faults = true,
                                       .congestion = true});
    EXPECT_NE(fp.find("\"partition_drops\":"), std::string::npos) << fp;
    EXPECT_EQ(fp.find("\"partition_drops\":0"), std::string::npos)
        << "expected nonzero partition drops; merged snapshot:\n"
        << fp;
}

// ---------------------------------------------------------------------------
// Building blocks.

TEST(ShardedEngine, PreLaneFiresBeforeNormalEventsOfTheSameTick)
{
    sim::Simulator s;
    std::vector<int> order;
    s.schedule(100, [&] { order.push_back(1); });
    s.schedulePre(100, [&] { order.push_back(0); });
    s.schedule(100, [&] { order.push_back(2); });
    s.runUntil(200);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, NextPendingLowerBoundIsConservative)
{
    sim::Simulator s;
    EXPECT_EQ(s.nextPendingLowerBound(), sim::maxTick);

    s.schedule(37, [] {});
    sim::Tick lb = s.nextPendingLowerBound();
    EXPECT_GE(lb, s.now());
    EXPECT_LE(lb, 37u);
    s.runUntil(37);
    EXPECT_EQ(s.nextPendingLowerBound(), sim::maxTick);

    // A far event parked in a higher wheel level still yields a sound
    // (if coarse) bound.
    sim::Tick when = s.now() + (1u << 14) + 11;
    s.schedule(when, [] {});
    lb = s.nextPendingLowerBound();
    EXPECT_GT(lb, s.now());
    EXPECT_LE(lb, when);
}

TEST(ShardedEngine, PostedRecordsDrainInKeyOrder)
{
    sim::ShardedSim ss(2, 2);
    ss.constrainLookahead(10);
    std::vector<int> order;
    ss.shard(0).schedule(1, [&] {
        // Posted out of key order, from shard 0's event loop; the
        // drain on shard 1 must sort by (a, b, c).
        ss.post(1, 11, 3, 0, 0, [&] { order.push_back(3); });
        ss.post(1, 11, 1, 0, 7, [&] { order.push_back(1); });
        ss.post(1, 11, 1, 0, 2, [&] { order.push_back(0); });
        ss.post(1, 11, 2, 5, 0, [&] { order.push_back(2); });
    });
    ss.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ss.stats().counterValue("cross_msgs"), 4u);
    EXPECT_EQ(ss.stats().counterValue("staged_records"), 4u);
}

TEST(ShardedEngine, SameShardPostsMergeWithMailboxPosts)
{
    // Records due the same tick on the same shard must drain in key
    // order whether they arrived through the mailbox (cross-shard) or
    // were staged directly (same-shard canonicalized routing).
    sim::ShardedSim ss(2, 1);
    ss.constrainLookahead(10);
    std::vector<int> order;
    ss.shard(0).schedule(1, [&] {
        ss.post(1, 11, 9, 0, 0, [&] { order.push_back(2); });
    });
    ss.shard(1).schedule(1, [&] {
        ss.post(1, 11, 5, 0, 0, [&] { order.push_back(1); });
        ss.post(1, 11, 1, 0, 0, [&] { order.push_back(0); });
    });
    ss.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, WindowsSkipIdleStretches)
{
    sim::ShardedSim ss(2, 1);
    ss.constrainLookahead(100);
    int fired = 0;
    ss.shard(0).schedule(5, [&] { ++fired; });
    ss.shard(1).schedule(1'000'000, [&] { ++fired; });
    ss.runUntil(2'000'000);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(ss.shard(0).now(), 2'000'000u);
    EXPECT_EQ(ss.shard(1).now(), 2'000'000u);
    // 2M ticks / 100-tick lookahead would be 20000 windows without
    // skipping; the lower-bound scan collapses the idle stretches.
    EXPECT_LT(ss.stats().counterValue("windows"), 100u);
}

TEST(ShardedEngine, LookaheadTakesTheMinimum)
{
    sim::ShardedSim ss(1, 1);
    EXPECT_EQ(ss.lookahead(), sim::maxTick);
    ss.constrainLookahead(500);
    ss.constrainLookahead(2000);
    EXPECT_EQ(ss.lookahead(), 500u);
    ss.constrainLookahead(200);
    EXPECT_EQ(ss.lookahead(), 200u);
}

#ifndef LYNX_POOL_PASSTHROUGH
TEST(ShardedEngine, CrossThreadPoolFreesParkAndAbsorb)
{
    sim::Pool a, b;
    a.setRemoteAllowed(true);
    b.setRemoteAllowed(true);
    void *p = nullptr;
    {
        sim::PoolScope scope(a);
        p = sim::Pool::instance().allocate(100);
    }
    {
        // Freed while another pool is thread-current: must route to
        // the owner's remote stack, not corrupt b's freelist.
        sim::PoolScope scope(b);
        sim::Pool::instance().deallocate(p);
    }
    EXPECT_EQ(a.stats().remoteFrees, 0u);
    a.absorbRemote();
    EXPECT_EQ(a.stats().remoteFrees, 1u);
    {
        // The absorbed block is back on the owner's freelist.
        sim::PoolScope scope(a);
        void *q = sim::Pool::instance().allocate(100);
        EXPECT_EQ(q, p);
        sim::Pool::instance().deallocate(q);
    }
}
#endif
