/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine and the
 * compute kernels: these bound how much simulated traffic the
 * reproduction can push per wall-clock second, and how expensive the
 * real application compute (LeNet/LBP/AES) is.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iterator>
#include <queue>
#include <thread>
#include <vector>

#include "common.hh"

#include "sim/shard.hh"

#include "accel/gpu.hh"
#include "apps/aes.hh"
#include "apps/lbp.hh"
#include "apps/lenet.hh"
#include "lynx/calibration.hh"
#include "lynx/mqueue.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/channel.hh"
#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "workload/datagen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            s.schedule(static_cast<sim::Tick>(i), [&] { ++sink; });
        s.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CoroutineSleepLoop(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        auto body = [&]() -> sim::Task {
            for (int i = 0; i < 1000; ++i)
                co_await sim::sleep(1_us);
        };
        sim::spawn(s, body());
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepLoop);

void
BM_ChannelPingPong(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        sim::Channel<int> a(s), b(s);
        auto left = [&]() -> sim::Task {
            for (int i = 0; i < 500; ++i) {
                co_await a.push(i);
                (void)co_await b.pop();
            }
        };
        auto right = [&]() -> sim::Task {
            for (int i = 0; i < 500; ++i) {
                int v = co_await a.pop();
                co_await b.push(v);
            }
        };
        sim::spawn(s, left());
        sim::spawn(s, right());
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelPingPong);

void
BM_HistogramRecord(benchmark::State &state)
{
    sim::Histogram h;
    sim::Rng rng(1);
    for (auto _ : state)
        h.record(rng.below(10'000'000));
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/** The per-message stats pattern the model code moved away from: a
 *  string-keyed map lookup on every event. */
void
BM_StatCounterLookup(benchmark::State &state)
{
    sim::StatSet stats;
    for (auto _ : state)
        stats.counter("rx_pushed").add();
    benchmark::DoNotOptimize(stats.counterValue("rx_pushed"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterLookup);

/** The hot-path pattern now used by dispatch/rxPush/forwardOne:
 *  resolve the counter once, bump through the cached pointer. */
void
BM_StatCounterCached(benchmark::State &state)
{
    sim::StatSet stats;
    sim::Counter *c = &stats.counter("rx_pushed");
    for (auto _ : state)
        c->add();
    benchmark::DoNotOptimize(stats.counterValue("rx_pushed"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterCached);

/** Multi-slot batch segment encode (the rxPushBatch hot path). */
void
BM_MqueueBatchEncode(benchmark::State &state)
{
    core::MqueueLayout l;
    l.slots = 16;
    l.slotBytes = 2048;
    std::vector<std::uint8_t> payload(64, 0x5a);
    std::vector<core::SlotRecord> recs(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t j = 0; j < recs.size(); ++j) {
        recs[j].payload = payload;
        recs[j].meta.len = 64;
        recs[j].meta.seq = static_cast<std::uint32_t>(j + 1);
    }
    for (auto _ : state) {
        auto [off, buf] = core::encodeRxBatchSegment(l, 0, recs);
        benchmark::DoNotOptimize(buf.data());
        benchmark::DoNotOptimize(off);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MqueueBatchEncode)->Arg(4)->Arg(16);

void
BM_RdmaWriteDeliver(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        pcie::DeviceMemory mem("m", 1 << 16);
        rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
        for (int i = 0; i < 200; ++i)
            qp.postWrite(static_cast<std::uint64_t>((i % 16) * 256),
                         std::vector<std::uint8_t>(64, 1));
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RdmaWriteDeliver);

// Doorbell-write cost against the watchers of range(0) / 3 mqueues,
// each installing the runtime's three watchpoints (gio RX ring, gio
// txCons, SNIC TX ring): Arg(3) is one mqueue, Arg(720) the 240 of
// Fig. 6's headline server. Per-write cost should not grow with W.
void
BM_DeviceMemoryNotify(benchmark::State &state)
{
    const auto queues = static_cast<std::uint64_t>(state.range(0) / 3);
    core::MqueueLayout l;
    pcie::DeviceMemory mem("m", queues * l.totalBytes());
    std::uint64_t hits = 0;
    auto wake = [&hits](std::uint64_t, std::uint64_t) { ++hits; };
    for (std::uint64_t q = 0; q < queues; ++q) {
        l.base = q * l.totalBytes();
        mem.watch(l.rxRingOff(), l.ringBytes(), wake);
        mem.watch(l.txConsOff(), 4, wake);
        mem.watch(l.txRingOff(), l.ringBytes(), wake);
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        l.base = (i % queues) * l.totalBytes();
        mem.writeU32(l.rxDoorbell(i), static_cast<std::uint32_t>(i));
        benchmark::ClobberMemory();
        ++i;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceMemoryNotify)->Arg(3)->Arg(720);

// Set-up cost of one accelerator: a default (16 MiB) Gpu plus the
// 240 default rings of Fig. 6's headline server carved from it. Device
// memory is demand-zero, so this is the cost of the ring pages the
// carve commits, not of the whole region. No floor.
void
BM_GpuSetup(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        net::Network nw(s);
        sim::Core arm(s, "snic.arm0");
        pcie::Fabric fabric(s, "pcie");
        accel::Gpu gpu(s, "k40m", fabric);
        core::RuntimeConfig cfg;
        cfg.cores = {&arm};
        cfg.nic = &nw.addNic("snic");
        cfg.stack = calibration::vmaBluefield();
        core::Runtime rt(s, cfg);
        auto &accel =
            rt.addAccelerator("k40m", gpu.memory(), rdma::RdmaPathModel{});
        for (int q = 0; q < 240; ++q)
            benchmark::DoNotOptimize(accel.allocQueue(16, 2048));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GpuSetup)->Unit(benchmark::kMicrosecond);

/** Encode one slot, write it into device memory and decode its
 *  metadata the way gio and the SNIC do (readSlotMeta). */
void
BM_MqueueCodecRoundTrip(benchmark::State &state)
{
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(state.range(0)), 0x5a);
    core::SlotMeta meta;
    meta.len = static_cast<std::uint32_t>(payload.size());
    meta.seq = 7;
    core::MqueueLayout l{0, 4, 2048};
    pcie::DeviceMemory mem("m", l.totalBytes());
    const std::uint64_t slotEnd = l.rxSlotEnd(0);
    for (auto _ : state) {
        auto buf = core::encodeSlotWrite(payload, meta);
        mem.write(core::slotWriteOffset(slotEnd, meta.len), buf);
        benchmark::ClobberMemory();
        auto got = core::readSlotMeta(mem, slotEnd);
        benchmark::DoNotOptimize(got.seq);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MqueueCodecRoundTrip)->Arg(64)->Arg(784)->Arg(1416);

void
BM_LenetForward(benchmark::State &state)
{
    apps::LeNet net;
    auto img = workload::synthMnist(3, 1);
    for (auto _ : state) {
        auto probs = net.forward(img);
        benchmark::DoNotOptimize(probs[0]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LenetForward);

// forwardBatch at 1, 8 and 32 images: items/s is per image, so these
// rows compare directly with BM_LenetForward.
void
BM_LenetForwardBatch(benchmark::State &state)
{
    apps::LeNet net;
    std::vector<std::vector<std::uint8_t>> imgs;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        imgs.push_back(workload::synthMnist(static_cast<int>(i % 10),
                                            static_cast<std::uint64_t>(i)));
    std::vector<std::span<const std::uint8_t>> spans(imgs.begin(),
                                                     imgs.end());
    for (auto _ : state) {
        auto probs = net.forwardBatch(spans);
        benchmark::DoNotOptimize(probs.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LenetForwardBatch)->Arg(1)->Arg(8)->Arg(32);

void
BM_LbpDistance(benchmark::State &state)
{
    auto a = workload::synthFace(1, 0);
    auto b = workload::synthFace(2, 0);
    for (auto _ : state) {
        double d = apps::lbpDistance(a, b, 32, 32);
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbpDistance);

void
BM_Aes128Block(benchmark::State &state)
{
    apps::Aes128 aes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                      15, 16});
    apps::Aes128::Block blk{};
    for (auto _ : state) {
        blk = aes.encrypt(blk);
        benchmark::DoNotOptimize(blk[0]);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Block);

// ---------------------------------------------------------------------
// Headline: steady-state message-hop events/sec — the overhauled
// engine versus an in-binary replica of the event path this PR
// replaced. Both sides run the identical workload: kDepth in-flight
// messages, each hop bumping rx/tx counters and forwarding the
// message through kBurst zero-delay wakeups (the channel-push /
// endpoint-signal / coroutine-resume pattern that dominates the
// simulator's event mix) followed by one timed hop with a
// deterministic 1 ns..100 us delay. The replica reproduces the seed
// engine cost-for-cost: (when, seq) binary heap of std::function
// events (72-byte captures — a forced heap allocation each), a
// std::vector payload inside every message, and string-keyed
// stats.counter() lookups per hop. The ratio is machine-independent:
// both sides run in the same process on the same box.
// ---------------------------------------------------------------------

constexpr std::size_t kHopDepth = 4096;    ///< in-flight messages
constexpr std::uint64_t kHopBurst = 3;     ///< zero-delay hops/timed hop
constexpr std::size_t kHopPayload = 64;    ///< payload bytes

std::uint64_t
hopLcg(std::uint64_t x)
{
    return x * 6364136223846793005ull + 1442695040888963407ull;
}

sim::Tick
hopDelay(std::uint64_t rng)
{
    // 1 ns .. ~8 us: NIC/PCIe-scale latencies (levels 0-2 of the
    // wheel), with enough spread to keep the replica's heap
    // kHopDepth deep.
    return 1 + static_cast<sim::Tick>((rng >> 33) % 8'192);
}

/** The seed engine, faithfully: a (when, seq)-ordered binary heap of
 *  type-erased std::function callbacks. Message-sized captures
 *  exceed libstdc++'s small-object buffer, so every scheduled hop
 *  heap-allocates — the cost inline EventFn removed. Zero-delay
 *  wakeups are this heap's worst case (full-depth sift both ways)
 *  and the wheel's best (ready ring). */
class LegacyCalendar
{
  public:
    sim::Tick now() const { return now_; }

    template <typename F>
    void
    scheduleIn(sim::Tick delay, F &&fn)
    {
        q_.push(Ev{now_ + delay, seq_++, std::forward<F>(fn)});
    }

    void
    run()
    {
        while (!q_.empty()) {
            Ev ev = std::move(const_cast<Ev &>(q_.top()));
            q_.pop();
            now_ = ev.when;
            ev.fn();
        }
    }

  private:
    struct Ev
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct After
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // FIFO among equal timestamps
        }
    };

    sim::Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Ev, std::vector<Ev>, After> q_;
};

/** What net::Message was before payload pooling: header fields plus
 *  a std::vector that owns its bytes on the general heap. */
struct LegacyMsg
{
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t seq = 0;     ///< per-chain delay rng stream
    std::uint64_t traceId = 0; ///< zero-delay burst countdown
};

/** One hop server on the overhauled engine: timing wheel + ready
 *  ring, net::Message with pooled Payload moved hop to hop inside an
 *  inline EventFn capture, counters bumped through pointers resolved
 *  once — the nic.cc deliver/send idiom. Each delivery forwards the
 *  message through kHopBurst zero-delay hops (dispatcher staging /
 *  forwarder handoff shape) and then one timed hop. */
class WheelHopServer
{
  public:
    explicit WheelHopServer(std::uint64_t budget) : budget_(budget) {}

    void
    step(net::Message msg)
    {
        cRxMsgs_->add();
        cRxBytes_->add(msg.size());
        if (++executed_ >= budget_)
            return; // stop forwarding; in-flight chains drain
        cTxMsgs_->add();
        cTxBytes_->add(msg.size());
        sim::Tick d = 0;
        if (msg.traceId > 0) {
            --msg.traceId; // one more zero-delay handoff in the burst
        } else {
            msg.traceId = kHopBurst;
            msg.seq = hopLcg(msg.seq);
            d = hopDelay(msg.seq);
        }
        auto ev = [this, m = std::move(msg)]() mutable {
            step(std::move(m));
        };
        static_assert(sim::EventFn::fitsInline<decltype(ev)>,
                      "hop capture must stay on the alloc-free path");
        eng_.scheduleIn(d, std::move(ev));
    }

    double
    run()
    {
        std::vector<std::uint8_t> bytes(kHopPayload, 0x5a);
        for (std::size_t i = 0; i < kHopDepth; ++i) {
            net::Message m;
            m.payload = bytes;
            m.seq = 0x9e3779b97f4a7c15ull * (i + 1) | 1;
            m.traceId = i % (kHopBurst + 1);
            eng_.scheduleIn(
                1 + static_cast<sim::Tick>((i * 257) % 100'000),
                [this, mm = std::move(m)]() mutable {
                    step(std::move(mm));
                });
        }
        auto t0 = std::chrono::steady_clock::now();
        eng_.run();
        auto t1 = std::chrono::steady_clock::now();
        return static_cast<double>(executed_) /
               std::chrono::duration<double>(t1 - t0).count();
    }

  private:
    sim::Simulator eng_;
    sim::StatSet stats_;
    std::uint64_t budget_;
    std::uint64_t executed_ = 0;
    sim::Counter *cRxMsgs_ = &stats_.counter("rx_msgs");
    sim::Counter *cRxBytes_ = &stats_.counter("rx_bytes");
    sim::Counter *cTxMsgs_ = &stats_.counter("tx_msgs");
    sim::Counter *cTxBytes_ = &stats_.counter("tx_bytes");
};

/** The same hop server on the seed-era event path: every scheduled
 *  hop constructs a message-sized std::function (a forced heap
 *  allocation), the payload lives in a heap std::vector, counters go
 *  through string-keyed map lookups, and the calendar is a binary
 *  heap — a zero-delay push is its full-depth worst case. */
class LegacyHopServer
{
  public:
    explicit LegacyHopServer(std::uint64_t budget) : budget_(budget) {}

    void
    step(LegacyMsg msg)
    {
        stats_.counter("rx_msgs").add();
        stats_.counter("rx_bytes").add(msg.payload.size());
        if (++executed_ >= budget_)
            return;
        stats_.counter("tx_msgs").add();
        stats_.counter("tx_bytes").add(msg.payload.size());
        sim::Tick d = 0;
        if (msg.traceId > 0) {
            --msg.traceId;
        } else {
            msg.traceId = kHopBurst;
            msg.seq = hopLcg(msg.seq);
            d = hopDelay(msg.seq);
        }
        eng_.scheduleIn(d, [this, m = std::move(msg)]() mutable {
            step(std::move(m));
        });
    }

    double
    run()
    {
        for (std::size_t i = 0; i < kHopDepth; ++i) {
            LegacyMsg m;
            m.payload.assign(kHopPayload, 0x5a);
            m.seq = 0x9e3779b97f4a7c15ull * (i + 1) | 1;
            m.traceId = i % (kHopBurst + 1);
            eng_.scheduleIn(
                1 + static_cast<sim::Tick>((i * 257) % 100'000),
                [this, mm = std::move(m)]() mutable {
                    step(std::move(mm));
                });
        }
        auto t0 = std::chrono::steady_clock::now();
        eng_.run();
        auto t1 = std::chrono::steady_clock::now();
        return static_cast<double>(executed_) /
               std::chrono::duration<double>(t1 - t0).count();
    }

  private:
    LegacyCalendar eng_;
    sim::StatSet stats_;
    std::uint64_t budget_;
    std::uint64_t executed_ = 0;
};

template <typename Server>
double
runOnce(std::uint64_t budget)
{
    Server srv(budget);
    return srv.run();
}

/** min / median / max of @p v (sorted in place). */
struct Spread
{
    double min, median, max;
};

Spread
spreadOf(std::vector<double> &v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    double median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    return {v.front(), median, v.back()};
}

/** Minimum accepted wheel/legacy speedup: the self-check fails the
 *  bench (and the ctest smoke) when a regression eats the engine
 *  overhaul's headline gain. Gated on the median of the interleaved
 *  pairs' ratios, so one disturbed run cannot flip it. */
constexpr double kMinSpeedup = 5.0;

int
runHeadline(bool fast, lynxbench::BenchJson &json)
{
    // On a shared host, short pairs let noise pull the median ratio
    // below the floor; 9 pairs of 1 M events keep --fast a few
    // seconds long.
    const std::uint64_t budget = fast ? 1'000'000 : 3'000'000;
    const int pairs = 9;

    // Warm the payload/slab pools once so the measured runs see the
    // steady state (a long simulation's, not a cold process's).
    (void)runOnce<WheelHopServer>(budget / 10);

    // Interleave the engines so host drift hits both sides of each
    // pair alike, and judge the per-pair ratio.
    std::vector<double> wheels, legacies, ratios;
    for (int i = 0; i < pairs; ++i) {
        double wheel = runOnce<WheelHopServer>(budget);
        double legacy = runOnce<LegacyHopServer>(budget);
        wheels.push_back(wheel);
        legacies.push_back(legacy);
        ratios.push_back(wheel / legacy);
    }
    Spread wheel = spreadOf(wheels);
    Spread legacy = spreadOf(legacies);
    Spread ratio = spreadOf(ratios);

    std::printf("engine headline: steady-state message hops "
                "(depth %zu, %llu events, %d interleaved pairs, "
                "median [min, max])\n",
                kHopDepth, static_cast<unsigned long long>(budget), pairs);
    std::printf("  %-22s %12.0f events/s [%.0f, %.0f]\n", "timing wheel",
                wheel.median, wheel.min, wheel.max);
    std::printf("  %-22s %12.0f events/s [%.0f, %.0f]\n",
                "legacy heap+function", legacy.median, legacy.min,
                legacy.max);
    std::printf("  %-22s %12.2fx [%.2f, %.2f]\n", "speedup", ratio.median,
                ratio.min, ratio.max);

    const auto k = static_cast<std::uint64_t>(pairs);
    json.addRow({{"metric", "events_per_sec"},
                 {"engine", "timing_wheel"},
                 {"value", wheel.median},
                 {"min", wheel.min},
                 {"max", wheel.max},
                 {"pairs", k},
                 {"depth", static_cast<std::uint64_t>(kHopDepth)},
                 {"events", budget}});
    json.addRow({{"metric", "events_per_sec"},
                 {"engine", "legacy_heap_function"},
                 {"value", legacy.median},
                 {"min", legacy.min},
                 {"max", legacy.max},
                 {"pairs", k},
                 {"depth", static_cast<std::uint64_t>(kHopDepth)},
                 {"events", budget}});
    json.addRow({{"metric", "speedup"},
                 {"value", ratio.median},
                 {"min", ratio.min},
                 {"max", ratio.max},
                 {"pairs", k},
                 {"min_accepted", kMinSpeedup}});

    if (ratio.median < kMinSpeedup) {
        std::fprintf(stderr,
                     "FAIL: median wheel/legacy speedup %.2fx below the "
                     "%.1fx floor\n",
                     ratio.median, kMinSpeedup);
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Sharded headline: the same hop workload partitioned over a
// ShardedSim — 4 machine shards with no cross-shard traffic, so the
// lookahead never constrains the window and the run measures pure
// event-loop scaling across worker threads (the per-shard wheels,
// pools, and counters must not share anything that serializes them).
// The 1/2/4-worker sweep self-checks the median per-round speedup
// against a scaling floor when the host actually has the cores, and
// only a no-collapse floor when it does not (CI containers are often
// single-core).
// ---------------------------------------------------------------------

/** One shard's self-contained hop loop (the WheelHopServer workload
 *  against a ShardedSim shard's simulator). */
class ShardHopLoop
{
  public:
    ShardHopLoop(sim::Simulator &eng, std::uint64_t budget,
                 std::uint64_t salt)
        : eng_(eng), budget_(budget), salt_(salt)
    {}

    /** Schedule the initial in-flight chains. Call under the owning
     *  shard's Scope so payloads come from its arena. */
    void
    seed(std::size_t depth)
    {
        std::vector<std::uint8_t> bytes(kHopPayload, 0x5a);
        for (std::size_t i = 0; i < depth; ++i) {
            net::Message m;
            m.payload = bytes;
            m.seq = 0x9e3779b97f4a7c15ull * (salt_ * depth + i + 1) | 1;
            m.traceId = i % (kHopBurst + 1);
            eng_.scheduleIn(
                1 + static_cast<sim::Tick>((i * 257) % 100'000),
                [this, mm = std::move(m)]() mutable {
                    step(std::move(mm));
                });
        }
    }

    std::uint64_t executed() const { return executed_; }

  private:
    void
    step(net::Message msg)
    {
        cRxMsgs_->add();
        cRxBytes_->add(msg.size());
        if (++executed_ >= budget_)
            return;
        cTxMsgs_->add();
        cTxBytes_->add(msg.size());
        sim::Tick d = 0;
        if (msg.traceId > 0) {
            --msg.traceId;
        } else {
            msg.traceId = kHopBurst;
            msg.seq = hopLcg(msg.seq);
            d = hopDelay(msg.seq);
        }
        eng_.scheduleIn(d, [this, m = std::move(msg)]() mutable {
            step(std::move(m));
        });
    }

    sim::Simulator &eng_;
    sim::StatSet stats_;
    std::uint64_t budget_;
    std::uint64_t salt_;
    std::uint64_t executed_ = 0;
    sim::Counter *cRxMsgs_ = &stats_.counter("rx_msgs");
    sim::Counter *cRxBytes_ = &stats_.counter("rx_bytes");
    sim::Counter *cTxMsgs_ = &stats_.counter("tx_msgs");
    sim::Counter *cTxBytes_ = &stats_.counter("tx_bytes");
};

constexpr unsigned kShardCount = 4;

/** @return (events/s, events executed) for the sharded hop workload
 *  on @p workers threads. */
std::pair<double, std::uint64_t>
shardedHopRate(unsigned workers, std::uint64_t budgetPerShard)
{
    sim::ShardedSim ss(kShardCount, workers);
    std::vector<std::unique_ptr<ShardHopLoop>> loops;
    for (unsigned s = 0; s < kShardCount; ++s) {
        sim::ShardedSim::Scope scope(ss, s);
        loops.push_back(std::make_unique<ShardHopLoop>(
            ss.shard(s), budgetPerShard, s));
        loops.back()->seed(kHopDepth / kShardCount);
    }
    auto t0 = std::chrono::steady_clock::now();
    // Far beyond the workload's worst-case span: every chain drains
    // long before this, and the empty remainder is skipped window-
    // by-lower-bound, not tick by tick.
    ss.runUntil(100_ms);
    auto t1 = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    for (auto &l : loops)
        executed += l->executed();
    return {static_cast<double>(executed) /
                std::chrono::duration<double>(t1 - t0).count(),
            executed};
}

int
runShardedHeadline(bool fast, lynxbench::BenchJson &json)
{
    const std::uint64_t budget = fast ? 150'000 : 1'000'000;
    const int rounds = fast ? 5 : 7;
    const unsigned cores = std::max(
        1u, std::thread::hardware_concurrency());
    const unsigned workerCounts[] = {1, 2, 4};
    constexpr std::size_t kCounts = std::size(workerCounts);

    std::printf("\nsharded headline: %u-shard hop workload, no "
                "cross-shard traffic (%u cores, %d interleaved rounds, "
                "median [min, max])\n",
                kShardCount, cores, rounds);

    // Warm the per-shard pools and the worker threads once, so the
    // measured rounds see the steady state.
    for (unsigned workers : workerCounts)
        (void)shardedHopRate(workers, budget / 10);

    // Each round runs every worker count back to back, so host drift
    // hits all of them alike; a round's speedup divides by the same
    // round's 1-worker rate.
    std::vector<double> rates[kCounts], speedups[kCounts];
    std::uint64_t executed = 0;
    for (int r = 0; r < rounds; ++r) {
        double base = 0.0;
        for (std::size_t w = 0; w < kCounts; ++w) {
            auto [rate, n] = shardedHopRate(workerCounts[w], budget);
            if (w == 0)
                base = rate;
            rates[w].push_back(rate);
            speedups[w].push_back(rate / base);
            executed = n;
        }
    }

    int rc = 0;
    for (std::size_t w = 0; w < kCounts; ++w) {
        const unsigned workers = workerCounts[w];
        Spread rate = spreadOf(rates[w]);
        Spread speedup = spreadOf(speedups[w]);
        // With enough physical cores a worker is a real core and the
        // floor is a scaling claim; oversubscribed, all workers share
        // one core and the only claim is that the barrier + mailbox
        // machinery does not collapse throughput.
        double floor = cores >= workers ? 0.6 * workers : 0.4;
        bool ok = speedup.median >= floor;
        if (!ok)
            rc = 1;
        std::printf("  workers %u: %12.0f events/s [%.0f, %.0f]  "
                    "(%.2fx [%.2f, %.2f] vs 1, floor %.2fx%s)%s\n",
                    workers, rate.median, rate.min, rate.max,
                    speedup.median, speedup.min, speedup.max, floor,
                    cores >= workers ? "" : " [oversubscribed]",
                    ok ? "" : "  FAIL");
        json.addRow({{"metric", "sharded_events_per_sec"},
                     {"shards", static_cast<int>(kShardCount)},
                     {"workers", static_cast<int>(workers)},
                     {"value", rate.median},
                     {"min", rate.min},
                     {"max", rate.max},
                     {"events", executed},
                     {"speedup_vs_1", speedup.median},
                     {"speedup_min", speedup.min},
                     {"speedup_max", speedup.max},
                     {"rounds", static_cast<std::uint64_t>(rounds)},
                     {"min_accepted", floor},
                     {"cores", static_cast<int>(cores)}});
    }
    if (rc)
        std::fprintf(stderr, "FAIL: median sharded engine scaling below "
                             "floor (see rows above)\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast = false;
    int outc = 0;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0) {
            fast = true;
            continue; // strip: google-benchmark rejects unknown flags
        }
        argv[outc++] = argv[i];
    }
    argc = outc;

    int rc;
    {
        lynxbench::BenchJson json("engine");
        // The sharded rows run first: measured right after the
        // seconds-long single-thread headline, their 2- and 4-worker
        // speedups dropped by up to a third on a shared 4-vCPU host.
        rc = runShardedHeadline(fast, json);
        rc |= runHeadline(fast, json);
        json.write();
    }
    if (fast)
        return rc; // ctest smoke: headlines + self-checks only

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return rc;
}
