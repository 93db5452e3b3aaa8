/**
 * @file
 * Tests for DeviceMemory (bounds, word helpers, watchpoints, demand-zero
 * backing) and the PCIe fabric cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;

TEST(DeviceMemory, WriteReadRoundTrip)
{
    pcie::DeviceMemory mem("gpu0", 1024);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    mem.write(100, data);
    std::vector<std::uint8_t> out(5);
    mem.read(100, out);
    EXPECT_EQ(out, data);
}

TEST(DeviceMemory, FreshMemoryIsZeroed)
{
    pcie::DeviceMemory mem("gpu0", 64);
    std::vector<std::uint8_t> out(64);
    mem.read(0, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(DeviceMemory, FreshRegionReadsZeroAtItsEnds)
{
    constexpr std::uint64_t kSize = 16 << 20;
    pcie::DeviceMemory mem("gpu0", kSize);
    EXPECT_EQ(mem.size(), kSize);
    for (std::uint64_t off : {std::uint64_t{0}, kSize / 2, kSize - 1})
        EXPECT_EQ(mem.view(off, 1)[0], 0) << "byte " << off;
}

TEST(DeviceMemory, ClearZeroesWithoutFiringWatchers)
{
    pcie::DeviceMemory mem("gpu0", 256);
    mem.write(0, std::vector<std::uint8_t>(256, 0xab));
    int fired = 0;
    mem.watch(0, 256, [&](std::uint64_t, std::uint64_t) { ++fired; });

    mem.clear(64, 100);
    EXPECT_EQ(fired, 0);
    auto v = mem.view(0, 256);
    for (std::uint64_t i = 0; i < 256; ++i) {
        std::uint8_t want = i >= 64 && i < 164 ? 0 : 0xab;
        ASSERT_EQ(v[i], want) << "byte " << i;
    }
}

TEST(DeviceMemory, CarvedRingReadsZero)
{
    sim::Simulator s;
    net::Network nw{s};
    sim::Core arm{s, "snic.arm0"};
    pcie::DeviceMemory mem("gpu0.mem", 1 << 20);
    // Dirty the bytes the ring will cover: the carve hands them out
    // zeroed whatever they held.
    mem.write(0, std::vector<std::uint8_t>(96 << 10, 0xab));

    core::RuntimeConfig cfg;
    cfg.cores = {&arm};
    cfg.nic = &nw.addNic("snic");
    cfg.stack = calibration::vmaXeon();
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu0", mem, rdma::RdmaPathModel{});
    core::MqueueLayout l = accel.allocQueue(16, 2048);
    core::MqueueLayout next = accel.allocQueue(16, 2048);

    auto ring = mem.view(l.base, l.totalBytes());
    EXPECT_TRUE(std::all_of(ring.begin(), ring.end(),
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_GE(next.base, l.base + l.totalBytes());
    EXPECT_EQ(mem.view(next.base, 1)[0], 0);
}

namespace {

/** @return this process's resident set size in bytes (0 if unknown). */
std::uint64_t
residentBytes()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6)) << 10; // reported in kB
    }
    return 0;
}

} // namespace

TEST(DeviceMemory, UntouchedPagesCostNoResidentMemory)
{
    const std::uint64_t before = residentBytes();
    if (before == 0)
        GTEST_SKIP() << "no VmRSS in /proc/self/status";
    constexpr std::uint64_t kSize = 256ull << 20;
    pcie::DeviceMemory mem("big", kSize);
    mem.writeU64(0, 0x0123456789abcdefull);
    mem.writeU64(kSize - 8, 0xfedcba9876543210ull);
    EXPECT_EQ(mem.readU64(0), 0x0123456789abcdefull);
    EXPECT_EQ(mem.readU64(kSize - 8), 0xfedcba9876543210ull);
    const std::uint64_t after = residentBytes();
    EXPECT_LT(after, before + (8u << 20))
        << "resident set grew by " << ((after - before) >> 20)
        << " MiB for a 256 MiB region with two 8-byte writes";
}

TEST(DeviceMemory, WordHelpersAreLittleEndian)
{
    pcie::DeviceMemory mem("gpu0", 64);
    mem.writeU32(0, 0x01020304u);
    std::uint8_t b[4];
    mem.read(0, b);
    EXPECT_EQ(b[0], 0x04);
    EXPECT_EQ(b[3], 0x01);
    EXPECT_EQ(mem.readU32(0), 0x01020304u);

    mem.writeU64(8, 0x1122334455667788ull);
    EXPECT_EQ(mem.readU64(8), 0x1122334455667788ull);
}

TEST(DeviceMemory, ViewExposesWrittenBytes)
{
    pcie::DeviceMemory mem("gpu0", 32);
    std::vector<std::uint8_t> data{9, 8, 7};
    mem.write(4, data);
    auto v = mem.view(4, 3);
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[2], 7);
}

TEST(DeviceMemoryDeath, OutOfBoundsAccessPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pcie::DeviceMemory mem("gpu0", 16);
    std::vector<std::uint8_t> big(17);
    EXPECT_DEATH(mem.write(0, big), "out of bounds");
    EXPECT_DEATH(mem.write(16, std::vector<std::uint8_t>{1}),
                 "out of bounds");
    std::vector<std::uint8_t> out(1);
    EXPECT_DEATH(mem.read(16, out), "out of bounds");
}

TEST(DeviceMemory, WatchpointFiresOnOverlappingWrite)
{
    pcie::DeviceMemory mem("gpu0", 128);
    int hits = 0;
    std::uint64_t lastOff = 0, lastLen = 0;
    mem.watch(10, 4, [&](std::uint64_t off, std::uint64_t len) {
        ++hits;
        lastOff = off;
        lastLen = len;
    });

    mem.write(0, std::vector<std::uint8_t>(10)); // [0,10): no overlap
    EXPECT_EQ(hits, 0);
    mem.write(8, std::vector<std::uint8_t>(4)); // [8,12): overlaps
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(lastOff, 8u);
    EXPECT_EQ(lastLen, 4u);
    mem.write(14, std::vector<std::uint8_t>(4)); // [14,18): next to it
    EXPECT_EQ(hits, 1);
    mem.writeU32(10, 7); // exact
    EXPECT_EQ(hits, 2);
}

TEST(DeviceMemory, UnwatchStopsNotifications)
{
    pcie::DeviceMemory mem("gpu0", 64);
    int hits = 0;
    auto id = mem.watch(0, 64, [&](auto, auto) { ++hits; });
    mem.writeU32(0, 1);
    EXPECT_EQ(hits, 1);
    mem.unwatch(id);
    mem.writeU32(0, 2);
    EXPECT_EQ(hits, 1);
}

TEST(DeviceMemory, WatcherMayRegisterAnotherWatcher)
{
    pcie::DeviceMemory mem("gpu0", 64);
    int hits = 0;
    mem.watch(0, 4, [&](auto, auto) {
        ++hits;
        mem.watch(4, 4, [&](auto, auto) { ++hits; });
    });
    mem.writeU32(0, 1); // fires first watcher, registers second
    EXPECT_EQ(hits, 1);
    mem.writeU32(4, 1);
    EXPECT_GE(hits, 2);
}

TEST(DeviceMemory, UnwatchDuringNotifySuppressesLaterWatcher)
{
    pcie::DeviceMemory mem("gpu0", 64);
    // The second watcher's owner is torn down by the first callback of
    // the same write; its callback must not run afterwards.
    auto owner = std::make_unique<int>(0);
    int firstHits = 0;
    std::uint64_t second = 0;
    mem.watch(0, 8, [&](auto, auto) {
        ++firstHits;
        if (owner) {
            mem.unwatch(second);
            owner.reset();
        }
    });
    second = mem.watch(0, 8, [&](auto, auto) { ++*owner; });
    int thirdHits = 0;
    mem.watch(4, 4, [&](auto, auto) { ++thirdHits; });

    mem.writeU32(4, 1);
    EXPECT_EQ(firstHits, 1);
    EXPECT_EQ(owner, nullptr);
    EXPECT_EQ(thirdHits, 1); // later watchers of the write still fire
    mem.writeU32(4, 2);
    EXPECT_EQ(firstHits, 2);
    EXPECT_EQ(thirdHits, 2);
}

TEST(DeviceMemory, OverlappingWatchersFireInWatchOrder)
{
    pcie::DeviceMemory mem("gpu0", 128);
    std::vector<int> order;
    auto record = [&](int tag) {
        return [&order, tag](auto, auto) { order.push_back(tag); };
    };
    // Registered out of offset order; all but the last overlap [40,52).
    mem.watch(48, 16, record(0));
    mem.watch(0, 64, record(1));
    mem.watch(32, 16, record(2));
    mem.watch(16, 40, record(3));
    mem.watch(60, 4, record(4));

    mem.write(40, std::vector<std::uint8_t>(12));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DeviceMemory, WatchpointsMatchLinearReference)
{
    // Random watch/unwatch/write sequences against a brute-force
    // reference: every live watcher is checked on every write, in
    // watch order. Some watchers unwatch another watcher, or watch the
    // written range, from inside their callback.
    using Fire = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
    constexpr std::uint64_t kSize = 4096;

    struct Spec
    {
        std::uint64_t id = 0;
        std::uint64_t off = 0;
        std::uint64_t len = 0;
        std::optional<std::uint64_t> victim;
        bool spawn = false;
    };

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed);
        pcie::DeviceMemory mem("gpu0", kSize);
        std::vector<Fire> fired;
        std::deque<Spec> specs;           // stable addresses for callbacks
        std::vector<Spec> ref;            // reference: live, in id order
        std::deque<std::uint64_t> spawned; // ids the callbacks created

        std::function<std::uint64_t(Spec)> add = [&](Spec spec) {
            Spec &s = specs.emplace_back(spec);
            s.id = mem.watch(s.off, s.len, [&, sp = &s](auto off, auto len) {
                fired.emplace_back(sp->id, off, len);
                if (sp->victim)
                    mem.unwatch(*sp->victim);
                if (sp->spawn) {
                    sp->spawn = false;
                    spawned.push_back(add(Spec{0, off, len, {}, false}));
                }
            });
            return s.id;
        };
        auto refRemove = [&](std::uint64_t id) {
            std::erase_if(ref, [id](const Spec &w) { return w.id == id; });
        };
        auto refWrite = [&](std::uint64_t off, std::uint64_t len) {
            std::vector<Fire> out;
            std::vector<Spec> hits;
            for (const Spec &w : ref) {
                if (off < w.off + w.len && w.off < off + len)
                    hits.push_back(w);
            }
            for (const Spec &w : hits) {
                auto live = std::find_if(
                    ref.begin(), ref.end(),
                    [&](const Spec &r) { return r.id == w.id; });
                if (live == ref.end())
                    continue;
                out.emplace_back(w.id, off, len);
                bool spawn = std::exchange(live->spawn, false);
                if (w.victim)
                    refRemove(*w.victim);
                if (spawn) {
                    ref.push_back(Spec{spawned.front(), off, len, {}, false});
                    spawned.pop_front();
                }
            }
            return out;
        };

        constexpr int kSteps = 800;
        const int wholeRegionStep = static_cast<int>(rng.below(kSteps));
        for (int step = 0; step < kSteps; ++step) {
            std::uint64_t pick = rng.below(100);
            if (step == wholeRegionStep || pick < 30) {
                Spec s;
                std::uint64_t kind = rng.below(10);
                // Few distinct lengths, so several watchers share the
                // longest one that bounds the index's search window.
                s.len = step == wholeRegionStep ? kSize
                        : kind == 0             ? 0
                        : kind < 5              ? 64
                                                : rng.between(1, 64);
                s.off = rng.below(kSize - s.len + 1);
                if (!ref.empty() && rng.chance(0.2))
                    s.victim = ref[rng.below(ref.size())].id;
                s.spawn = rng.chance(0.1);
                s.id = add(s);
                ref.push_back(s);
            } else if (pick < 45) {
                if (ref.empty())
                    continue;
                std::uint64_t id = ref[rng.below(ref.size())].id;
                mem.unwatch(id);
                refRemove(id);
            } else {
                std::uint64_t len =
                    rng.below(10) == 0 ? 0 : rng.between(1, 128);
                std::uint64_t off = rng.below(kSize - len + 1);
                if (!ref.empty() && rng.chance(0.5)) {
                    // Probe a watcher's edges: one byte inside or
                    // just outside either end.
                    const Spec &w = ref[rng.below(ref.size())];
                    std::uint64_t end = w.off + w.len;
                    std::uint64_t edges[] = {
                        end > 0 ? end - 1 : 0, end,
                        w.off > len ? w.off - len : 0,
                        w.off + 1 > len ? w.off + 1 - len : 0};
                    off = std::min(edges[rng.below(4)], kSize - len);
                }
                fired.clear();
                mem.write(off, std::vector<std::uint8_t>(len));
                ASSERT_EQ(fired, refWrite(off, len))
                    << "step " << step << " write [" << off << ", "
                    << off + len << ")";
                ASSERT_TRUE(spawned.empty());
            }
        }
    }
}

TEST(Fabric, DmaTimeIncludesLatencyAndSerialization)
{
    sim::Simulator s;
    pcie::FabricConfig cfg;
    cfg.dmaLatency = 900_ns;
    cfg.gbps = 50.0;
    pcie::Fabric fab(s, "host0", cfg);
    // 1000 bytes at 50 Gbps = 160 ns.
    EXPECT_EQ(fab.dmaTime(1000), 900_ns + 160_ns);
    EXPECT_EQ(fab.serialization(0), 0u);
}

TEST(Fabric, DmaAwaitsTransferTime)
{
    sim::Simulator s;
    pcie::Fabric fab(s, "host0");
    sim::Tick done = 0;
    auto body = [&]() -> sim::Task {
        co_await fab.dma(1000);
        done = s.now();
    };
    sim::spawn(s, body());
    s.run();
    EXPECT_EQ(done, fab.dmaTime(1000));
}

TEST(Fabric, MmioChargesRoundTrip)
{
    sim::Simulator s;
    pcie::FabricConfig cfg;
    cfg.mmioLatency = 800_ns;
    pcie::Fabric fab(s, "host0", cfg);
    sim::Tick done = 0;
    auto body = [&]() -> sim::Task {
        co_await fab.mmio();
        co_await fab.mmio();
        done = s.now();
    };
    sim::spawn(s, body());
    s.run();
    EXPECT_EQ(done, 1600_ns);
}
