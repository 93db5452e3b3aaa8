/**
 * @file
 * One repetition of one benchmark workload, built against the public
 * APIs of sim, net, lynx, accel, apps and workload.
 *
 *     perfbench_rep --workload <name> --seed <n> [--part <k>]
 *                   [--trace <path>]
 *
 * A seed's inputs are split into parts: part k draws every random
 * input (arrivals, payload bytes, images, kernel jitter) from a
 * stream derived from (seed, k), and the benchmark pools the parts'
 * latency samples. A repetition builds the world (timing each set-up
 * phase), runs the simulation, checks correctness after the timed
 * region, and prints one JSON object with the raw measurements: host
 * timings, the load generators' ledgers and exact latencies, engine
 * counters and the merged metrics registry. `perfbench/run.py` turns repetitions into the
 * benchmark's metrics; `perfbench/layers.py` derives the per-layer
 * figures from the registry.
 *
 * With --trace, a sim::SpanCollector stamps every request's pipeline
 * hops, the LoadGen callbacks are timed one by one, and the sim-time
 * spans plus the benchmark's own host-time spans (set-up phases, run
 * loop, callbacks, replay) are written to <path> as a Chrome trace.
 * Tracing never changes simulated time, so both modes must produce
 * the same sim-time results.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "apps/lenet.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "net/steering.hh"
#include "pcie/fabric.hh"
#include "sim/metrics.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"
#include "workload/loadgen.hh"

namespace {

using namespace lynx;
using namespace lynx::sim::literals;
using Clock = std::chrono::steady_clock;

/** Closed-loop capacity of Fig. 6's headline cell (Lynx on
 *  Bluefield, one K40m, 240 mqueues, 20 us echo), simulated req/s. */
constexpr double kEchoCapacityRps = 625230;

/** Cluster ring capacity per machine: 4 rings x 1 / 50 us. */
constexpr int kClusterMachines = 4;
constexpr int kRingsPerMachine = 4;
constexpr sim::Tick kClusterProcTime = 50_us;
constexpr double kMachineCapacityRps =
    kRingsPerMachine * 1e9 / static_cast<double>(kClusterProcTime);

/** Distinct LeNet input images per part (classified again afterwards
 *  to check every returned digit). */
constexpr std::size_t kLenetImages = 128;

/** Timed replay passes over those images (the median is reported). */
constexpr int kReplayPasses = 3;

/** Callback spans kept for the Chrome trace (all are timed). */
constexpr std::size_t kCallbackSpansKept = 1000;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The 64 request bytes of @p seq: a pure function of (salt, seq),
 *  so the validator recomputes them instead of storing them. */
std::vector<std::uint8_t>
echoPayload(std::uint64_t salt, std::uint64_t seq)
{
    std::vector<std::uint8_t> p(64);
    std::uint64_t x = mix64(salt ^ seq);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>((x >> (8 * (b & 7))) + b * 29);
    return p;
}

bool
echoMatches(std::uint64_t salt, const net::Message &resp)
{
    std::vector<std::uint8_t> want = echoPayload(salt, resp.seq);
    return resp.payload.size() == want.size() &&
           std::memcmp(resp.payload.data(), want.data(), want.size()) ==
               0;
}

// ---------------------------------------------------------------------
// Host-time spans (the benchmark's own, around calls into each layer)
// ---------------------------------------------------------------------

class HostSpans
{
  public:
    HostSpans() : origin_(Clock::now()) {}

    double
    sinceOriginUs(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    /** Record [start, end) under @p name. @return its length, s. */
    double
    add(const char *name, Clock::time_point start, Clock::time_point end,
        int tid = 0)
    {
        spans_.push_back({name, sinceOriginUs(start),
                          sinceOriginUs(end) - sinceOriginUs(start), tid});
        return std::chrono::duration<double>(end - start).count();
    }

    /** Chrome trace events (pid 2 = host; pid 1 holds sim spans). */
    void
    writeEvents(std::ostream &os) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << s.tid
               << ",\"ts\":" << s.startUs << ",\"dur\":" << s.durUs
               << "}";
        }
    }

  private:
    struct Span
    {
        const char *name;
        double startUs, durUs;
        int tid;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * Callback accounting of one LoadGen. Generators of a sharded run
 * call back on their shard's worker thread, so each has its own
 * probe; the probes are summed after the run.
 */
struct GenProbe
{
    struct Call
    {
        const char *name;
        Clock::time_point t0, t1;
    };

    std::uint64_t issued = 0;    ///< makeRequest calls (all windows)
    std::uint64_t responses = 0; ///< validate calls (all windows)
    std::vector<std::uint64_t> latNs; ///< in-window latencies, exact
    double timedS = 0;           ///< host time in callbacks (traced)
    std::uint64_t timed = 0;
    std::vector<Call> kept; ///< first calls, for the Chrome trace

    /** Time one callback (traced runs only). */
    template <class F>
    auto
    time(const char *name, F &&fn)
    {
        Clock::time_point t0 = Clock::now();
        auto out = fn();
        Clock::time_point t1 = Clock::now();
        timedS += std::chrono::duration<double>(t1 - t0).count();
        if (++timed <= kCallbackSpansKept)
            kept.push_back({name, t0, t1});
        return out;
    }
};

std::string
listJson(const std::vector<std::uint64_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + std::to_string(v[i]);
    return out + "]";
}

/** @return field @p key of /proc/self/status (a "kB" value) in MB. */
double
statusMb(const std::string &key)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind(key, 0) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    return 0;
}

// ---------------------------------------------------------------------
// Minimal JSON object writer
// ---------------------------------------------------------------------

class JsonObj
{
  public:
    JsonObj &
    num(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonObj &
    u64(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObj &
    boolean(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObj &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    JsonObj &
    raw(const char *key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",");
        body_ += "\"" + std::string(key) + "\":" + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t part = 0;
    std::string tracePath; ///< empty = untraced

    /** Root of every random input of this (seed, part). */
    std::uint64_t stream() const { return mix64(mix64(seed) + part); }
};

/** One Lynx-on-Bluefield server with one K40m. Members are ordered
 *  so the runtime is torn down before its devices. */
struct Machine
{
    std::unique_ptr<snic::Bluefield> bf;
    std::unique_ptr<pcie::Fabric> fabric;
    std::unique_ptr<accel::Gpu> gpu;
    std::unique_ptr<core::Runtime> rt;
    core::Service *svc = nullptr;
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
};

/** What a workload's server looks like. */
struct MachineSpec
{
    int queues = 1;
    std::uint32_t ringSlots = 16;
    core::DispatchPolicy policy = core::DispatchPolicy::RoundRobin;
    bool admission = false;
    /** Spawn the accelerator-side service on every queue. */
    std::function<void(sim::Simulator &, Machine &)> serve;
};

/** Host seconds of each set-up phase (summed over machines). */
struct SetupTimes
{
    double net = 0, accel = 0, runtime = 0, loadgen = 0;
};

std::unique_ptr<Machine>
buildMachine(sim::Simulator &s, net::Network &nw, int i,
             const MachineSpec &spec, SetupTimes &st, HostSpans &hs)
{
    auto m = std::make_unique<Machine>();
    std::string id = std::to_string(i);
    Clock::time_point t0 = Clock::now();
    m->bf = std::make_unique<snic::Bluefield>(s, nw, "bf" + id);
    Clock::time_point t1 = Clock::now();
    m->fabric = std::make_unique<pcie::Fabric>(s, "server" + id + ".pcie");
    m->gpu = std::make_unique<accel::Gpu>(s, "k40m" + id, *m->fabric);
    Clock::time_point t2 = Clock::now();

    core::RuntimeConfig cfg = m->bf->lynxRuntimeConfig();
    if (spec.admission) {
        cfg.admission.enabled = true;
        cfg.admission.shedOccupancy = 0.45;
    }
    m->rt = std::make_unique<core::Runtime>(s, cfg);
    auto &accel = m->rt->addAccelerator("k40m" + id, m->gpu->memory(),
                                        rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "svc" + id;
    scfg.port = 7000;
    scfg.queuesPerAccel = spec.queues;
    scfg.ringSlots = spec.ringSlots;
    scfg.policy = spec.policy;
    m->svc = &m->rt->addService(scfg);
    m->queues = m->rt->makeAccelQueues(*m->svc, accel);
    spec.serve(s, *m);
    m->rt->start();
    Clock::time_point t3 = Clock::now();

    st.net += hs.add("setup.net", t0, t1);
    st.accel += hs.add("setup.accel", t1, t2);
    st.runtime += hs.add("setup.runtime", t2, t3);
    return m;
}

/** Everything a repetition reports, gathered while the world lives. */
struct Report
{
    JsonObj config;
    SetupTimes setup;
    double runS = 0;
    /** Resident memory at the end of the run loop, before the checks
     *  and this report allocate: the peak (VmHWM) and its current
     *  anonymous and file-backed parts. */
    double peakRssMb = 0, rssAnonMb = 0, rssFileMb = 0;
    double replayS = 0;
    std::uint64_t replayImages = 0;
    std::uint64_t events = 0;
    std::vector<std::unique_ptr<GenProbe>> probes;
    bool openLoop = false;
    double windowS = 0;

    std::uint64_t sent = 0, completed = 0, goodput = 0, lost = 0,
                  late = 0, vfail = 0, vfailAll = 0, timeouts = 0,
                  inFlight = 0;
    std::uint64_t samples = 0; ///< LoadGen's latency histogram count
    bool conserved = true;

    std::uint64_t digitsChecked = 0, digitMismatches = 0;
    std::uint64_t gpuKernels = 0, gpuLaunches = 0;

    unsigned shards = 0, threads = 0;
    std::uint64_t shardWindows = 0, shardStalls = 0, shardCross = 0;

    std::string registryJson;
    std::string spanJson = "{}";

    void
    addGen(const workload::LoadGen &g)
    {
        sent += g.sent();
        completed += g.completed();
        goodput += g.goodput();
        lost += g.lost();
        late += g.late();
        vfail += g.windowValidationFailures();
        vfailAll += g.validationFailures();
        timeouts += g.timeouts();
        inFlight += g.openInFlight();
        if (openLoop)
            conserved = conserved && g.conservationHolds();
        samples += g.latency().count();
    }

    void
    addGpus(const std::vector<std::unique_ptr<Machine>> &ms)
    {
        for (const auto &m : ms) {
            gpuKernels += m->gpu->stats().counterValue("kernels");
            gpuLaunches += m->gpu->stats().counterValue("device_launches");
        }
    }

    void
    addRegistries(const std::vector<const sim::MetricsRegistry *> &regs)
    {
        std::ostringstream os;
        sim::mergedJson(os, sim::mergeRegistries(regs, "sim.shard"));
        registryJson = os.str();
        while (!registryJson.empty() && registryJson.back() == '\n')
            registryJson.pop_back();
    }

    void
    addSpans(const sim::SpanCollector &sc)
    {
        JsonObj o;
        for (std::size_t i = 1; i < sim::kNumStages; ++i) {
            auto st = static_cast<sim::Stage>(i);
            const sim::Histogram &h = sc.stageHistogram(st);
            o.raw(sim::stageName(st),
                  JsonObj()
                      .u64("count", h.count())
                      .u64("p50_ns", h.percentile(50))
                      .u64("p99_ns", h.percentile(99))
                      .text());
        }
        spanJson = o.text();
    }

    /** The timed region: run the world to @p horizon. */
    void
    runLoop(const std::function<void(sim::Tick)> &runUntil,
            sim::Tick horizon, HostSpans &hs)
    {
        Clock::time_point t0 = Clock::now();
        runUntil(horizon);
        runS = hs.add("run_loop", t0, Clock::now());
        peakRssMb = statusMb("VmHWM:");
        rssAnonMb = statusMb("RssAnon:");
        rssFileMb = statusMb("RssFile:");
    }

    template <class T>
    T
    sumProbes(T GenProbe::*field) const
    {
        T n{};
        for (const auto &p : probes)
            n += (*p).*field;
        return n;
    }

    std::string
    json(const Options &o) const
    {
        std::vector<std::uint64_t> lat;
        for (const auto &p : probes)
            lat.insert(lat.end(), p->latNs.begin(), p->latNs.end());
        std::sort(lat.begin(), lat.end());
        JsonObj host;
        host.num("setup_s", setup.net + setup.accel + setup.runtime +
                                setup.loadgen)
            .num("setup.net_s", setup.net)
            .num("setup.accel_s", setup.accel)
            .num("setup.runtime_s", setup.runtime)
            .num("setup.loadgen_s", setup.loadgen)
            .num("run_s", runS)
            .num("replay_s", replayS)
            .u64("replay_images", replayImages)
            .num("callback_s", sumProbes(&GenProbe::timedS))
            .u64("callbacks", sumProbes(&GenProbe::timed))
            .num("peak_rss_mb", peakRssMb)
            .num("rss_anon_mb", rssAnonMb)
            .num("rss_file_mb", rssFileMb);
        JsonObj simj;
        simj.boolean("open_loop", openLoop)
            .num("window_s", windowS)
            .u64("events", events)
            .u64("issued", sumProbes(&GenProbe::issued))
            .u64("responses", sumProbes(&GenProbe::responses))
            .u64("sent", sent)
            .u64("completed", completed)
            .u64("goodput", goodput)
            .u64("lost", lost)
            .u64("late", late)
            .u64("validation_failures", vfail)
            .u64("validation_failures_all", vfailAll)
            .u64("timeouts", timeouts)
            .u64("in_flight_end", inFlight)
            .boolean("conserved", conserved)
            .u64("samples", samples)
            .u64("exact_samples", lat.size())
            .raw("latencies_ns", listJson(lat))
            .u64("digits_checked", digitsChecked)
            .u64("digit_mismatches", digitMismatches)
            .u64("gpu_kernels", gpuKernels)
            .u64("gpu_device_launches", gpuLaunches);
        JsonObj shard;
        shard.u64("shards", shards)
            .u64("threads", threads)
            .u64("windows", shardWindows)
            .u64("barrier_stalls", shardStalls)
            .u64("cross_msgs", shardCross);
        JsonObj out;
        out.str("workload", o.workload)
            .u64("seed", o.seed)
            .u64("part", o.part)
            .boolean("traced", !o.tracePath.empty())
            .str("compiler", __VERSION__)
            .raw("config", config.text())
            .raw("host", host.text())
            .raw("sim", simj.text())
            .raw("shard", shard.text())
            .raw("spans", spanJson)
            .raw("registry", registryJson);
        return out.text();
    }
};

/** Open-loop generator knobs shared by the open-loop workloads. */
struct OpenLoad
{
    double rate = 0;
    sim::Tick warmup = 0, duration = 0;
    sim::Tick timeout = 10_ms;
    sim::Tick slo = 0;
};

/**
 * Wrap a LoadGen's callbacks with a fresh probe of @p r: issued and
 * response counts, the exact latency of every in-window completion
 * (LoadGen keeps only a bucketed histogram), and, in traced runs,
 * per-call host timing. The generator calls validate only for
 * requests still outstanding, and echoes the (intended) send time in
 * sentAt, so the window rule below is LoadGen's own; run.py checks
 * that the sample count equals LoadGen::completed().
 */
void
instrument(workload::LoadGenConfig &lg, const Options &o,
           sim::Simulator &s, Report &r)
{
    r.probes.push_back(std::make_unique<GenProbe>());
    GenProbe *p = r.probes.back().get();
    auto make = lg.makeRequest;
    auto check = lg.validate;
    const bool traced = !o.tracePath.empty();
    const bool open = lg.openRate > 0;
    const sim::Tick from = lg.warmup, to = lg.warmup + lg.duration;
    lg.makeRequest = [make, p, traced](std::uint64_t seq, sim::Rng &rng) {
        ++p->issued;
        if (!traced)
            return make(seq, rng);
        return p->time("loadgen.make_request",
                       [&] { return make(seq, rng); });
    };
    lg.validate = [check, p, traced, open, from, to,
                   &s](const net::Message &m) {
        ++p->responses;
        bool ok = traced ? p->time("loadgen.validate",
                                   [&] { return check(m); })
                         : check(m);
        auto in = [&](sim::Tick t) { return t >= from && t < to; };
        if (ok && in(m.sentAt) && (open || in(s.now())))
            p->latNs.push_back(s.now() - m.sentAt);
        return ok;
    };
}

/** Write sim spans (pid 1) and host spans (pid 2, callbacks on tid 1)
 *  as one Chrome trace. */
void
writeTrace(const std::string &path, const sim::SpanCollector *sc,
           HostSpans &hs, const Report &r)
{
    for (const auto &p : r.probes)
        for (const GenProbe::Call &c : p->kept)
            hs.add(c.name, c.t0, c.t1, 1);
    std::string simEvents;
    if (sc) {
        std::ostringstream os;
        sc->writeChromeTrace(os);
        simEvents = os.str();
        std::size_t b = simEvents.find('[');
        std::size_t e = simEvents.rfind(']');
        simEvents = simEvents.substr(b + 1, e - b - 1);
    }
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[" << simEvents;
    std::ostringstream host;
    hs.writeEvents(host);
    if (!simEvents.empty() && !host.str().empty())
        f << ",";
    f << host.str() << "]}\n";
}

// ---------------------------------------------------------------------
// Single-server workloads (serial engine)
// ---------------------------------------------------------------------

/** Build one machine + client NIC on a serial Simulator, drive it
 *  with @p lg (completed by the caller), run past the drain horizon
 *  and gather @p r. @p afterRun runs after the timed region, with
 *  the world still alive. */
void
runSingleServer(const Options &o, const MachineSpec &spec,
                workload::LoadGenConfig lg, sim::Tick horizon,
                HostSpans &hs, Report &r,
                const std::function<void()> &afterRun)
{
    Clock::time_point n0 = Clock::now();
    sim::Simulator s;
    net::Network nw(s);
    net::Nic &client = nw.addNic("client0");
    r.setup.net += hs.add("setup.net", n0, Clock::now());

    std::vector<std::unique_ptr<Machine>> ms;
    ms.push_back(buildMachine(s, nw, 0, spec, r.setup, hs));

    std::optional<sim::SpanCollector> spans;
    Clock::time_point l0 = Clock::now();
    if (!o.tracePath.empty()) {
        spans.emplace(s);
        spans->setRetainLimit(2000);
    }
    lg.nic = &client;
    lg.target = {ms[0]->bf->node(), 7000};
    instrument(lg, o, s, r);
    workload::LoadGen gen(s, lg);
    gen.start();
    r.setup.loadgen += hs.add("setup.loadgen", l0, Clock::now());

    r.runLoop([&](sim::Tick t) { s.runUntil(t); }, horizon, hs);

    r.events = s.eventsExecuted();
    r.addGen(gen);
    r.addGpus(ms);
    r.addRegistries({&s.metrics()});
    if (spans)
        r.addSpans(*spans);
    afterRun();
    if (!o.tracePath.empty())
        writeTrace(o.tracePath, spans ? &*spans : nullptr, hs, r);
}

void
runEcho(const Options &o, HostSpans &hs, Report &r)
{
    constexpr sim::Tick procTime = 20_us;
    OpenLoad load{.rate = 0.8 * kEchoCapacityRps,
                  .warmup = 5_ms,
                  .duration = 50_ms,
                  .timeout = 10_ms};
    r.openLoop = true;
    r.windowS = sim::toSeconds(load.duration);
    r.config.str("server", "lynx-bluefield")
        .u64("mqueues", 240)
        .num("proc_us", sim::toMicroseconds(procTime))
        .num("open_rate_rps", load.rate)
        .u64("payload_bytes", 64)
        .u64("open_ports", 256)
        .num("warmup_ms", sim::toMilliseconds(load.warmup))
        .num("window_ms", sim::toMilliseconds(load.duration))
        .num("timeout_ms", sim::toMilliseconds(load.timeout));

    MachineSpec spec;
    spec.queues = 240;
    spec.serve = [](sim::Simulator &s, Machine &m) {
        for (auto &q : m.queues)
            sim::spawn(s, apps::runEchoBlock(*m.gpu, *q, procTime));
    };

    const std::uint64_t salt = mix64(o.stream());
    workload::LoadGenConfig lg;
    lg.openRate = load.rate;
    lg.openPorts = 256;
    lg.warmup = load.warmup;
    lg.duration = load.duration;
    lg.requestTimeout = load.timeout;
    lg.seed = o.stream();
    lg.makeRequest = [salt](std::uint64_t seq, sim::Rng &) {
        return echoPayload(salt, seq);
    };
    lg.validate = [salt](const net::Message &m) {
        return echoMatches(salt, m);
    };
    runSingleServer(o, spec, lg,
                    load.warmup + load.duration + 5_ms + load.timeout +
                        1_ms,
                    hs, r, [] {});
}

void
runLenet(const Options &o, HostSpans &hs, Report &r)
{
    constexpr sim::Tick warmup = 20_ms;
    constexpr sim::Tick duration = 400_ms;
    r.windowS = sim::toSeconds(duration);
    r.config.str("server", "lynx-bluefield")
        .u64("mqueues", 1)
        .u64("concurrency", 1)
        .u64("distinct_images", kLenetImages)
        .num("jitter_pct", 0.08)
        .num("warmup_ms", sim::toMilliseconds(warmup))
        .num("window_ms", sim::toMilliseconds(duration));

    apps::LeNet model;
    std::vector<std::vector<std::uint8_t>> images;
    images.reserve(kLenetImages);
    for (std::size_t i = 0; i < kLenetImages; ++i)
        images.push_back(workload::synthMnist(
            static_cast<int>(i % 10), mix64(o.stream() + i)));

    MachineSpec spec;
    apps::LenetServiceConfig lcfg;
    lcfg.jitterPct = 0.08;
    lcfg.jitterSeed = mix64(o.stream() ^ 0x1e4e7);
    spec.serve = [&model, lcfg](sim::Simulator &s, Machine &m) {
        sim::spawn(s, apps::runLenetServer(*m.gpu, *m.queues[0], model,
                                           lcfg));
    };

    // (seq, returned digit) of every response, checked after the run.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> answers;
    workload::LoadGenConfig lg;
    lg.concurrency = 1;
    lg.warmup = warmup;
    lg.duration = duration;
    lg.seed = o.stream();
    lg.makeRequest = [&images](std::uint64_t seq, sim::Rng &) {
        return images[seq % kLenetImages];
    };
    lg.validate = [&answers](const net::Message &m) {
        if (m.payload.size() != 1 || m.payload[0] >= 10)
            return false;
        answers.emplace_back(m.seq, m.payload[0]);
        return true;
    };
    runSingleServer(
        o, spec, lg, warmup + duration + lg.drain + 10_ms, hs, r, [&] {
            // Classify the run's images again: the first pass is the
            // reference every returned digit is checked against; the
            // median pass times LeNet::classify with warm caches, as
            // the served requests ran.
            std::vector<int> want;
            std::vector<double> passes;
            for (int pass = 0; pass < kReplayPasses; ++pass) {
                Clock::time_point t0 = Clock::now();
                for (const auto &img : images) {
                    int digit = model.classify(img);
                    if (pass == 0)
                        want.push_back(digit);
                }
                passes.push_back(
                    hs.add("apps.lenet_replay", t0, Clock::now()));
            }
            std::sort(passes.begin(), passes.end());
            r.replayS = passes[passes.size() / 2];
            r.replayImages = images.size();
            for (const auto &[seq, digit] : answers) {
                ++r.digitsChecked;
                if (want[seq % kLenetImages] != digit)
                    ++r.digitMismatches;
            }
        });
}

// ---------------------------------------------------------------------
// Cluster workloads (sharded engine; 1 shard = the serial baseline)
// ---------------------------------------------------------------------

void
runCluster(const Options &o, unsigned shards, unsigned threads,
           HostSpans &hs, Report &r)
{
    OpenLoad load{.rate = 1.5 * kMachineCapacityRps * kClusterMachines,
                  .warmup = 20_ms,
                  .duration = 100_ms,
                  .timeout = 10_ms,
                  .slo = 5_ms};
    constexpr std::uint64_t kLogicalClients = 1'000'000;
    r.openLoop = true;
    r.windowS = sim::toSeconds(load.duration);
    r.shards = shards;
    r.threads = threads;
    // The config hash covers the model only: both engines run the
    // identical inputs.
    r.config.str("server", "lynx-bluefield")
        .u64("machines", kClusterMachines)
        .u64("rings_per_machine", kRingsPerMachine)
        .num("proc_us", sim::toMicroseconds(kClusterProcTime))
        .num("open_rate_rps", load.rate)
        .u64("logical_clients", kLogicalClients)
        .u64("open_ports", 256)
        .num("propagation_us", 5)
        .num("shed_occupancy", 0.45)
        .num("warmup_ms", sim::toMilliseconds(load.warmup))
        .num("window_ms", sim::toMilliseconds(load.duration))
        .num("timeout_ms", sim::toMilliseconds(load.timeout))
        .num("slo_ms", sim::toMilliseconds(load.slo));

    Clock::time_point n0 = Clock::now();
    sim::ShardedSim ss(shards, threads);
    net::NetworkConfig ncfg;
    ncfg.propagation = 5_us;
    net::Network nw(ss, ncfg);
    r.setup.net += hs.add("setup.net", n0, Clock::now());

    MachineSpec spec;
    spec.queues = kRingsPerMachine;
    spec.ringSlots = 32;
    spec.policy = core::DispatchPolicy::Rss;
    spec.admission = true;
    spec.serve = [](sim::Simulator &s, Machine &m) {
        for (auto &q : m.queues)
            sim::spawn(s, apps::runEchoBlock(*m.gpu, *q, kClusterProcTime));
    };

    std::vector<std::unique_ptr<Machine>> ms;
    net::steer::ConsistentHashRing ring;
    std::vector<std::uint32_t> nodes;
    for (int i = 0; i < kClusterMachines; ++i) {
        unsigned home = static_cast<unsigned>(i) % shards;
        sim::ShardedSim::Scope scope(ss, home);
        ms.push_back(buildMachine(ss.shard(home), nw, i, spec, r.setup, hs));
        ring.add(static_cast<std::uint64_t>(i));
        nodes.push_back(ms.back()->bf->node());
    }

    // Span stamps of one request would land in several shards'
    // collectors, so the sim-time spans exist for one shard only.
    std::optional<sim::SpanCollector> spans;
    Clock::time_point l0 = Clock::now();
    if (!o.tracePath.empty() && shards == 1) {
        spans.emplace(ss.shard(0));
        spans->setRetainLimit(2000);
    }
    const std::uint64_t salt = mix64(o.stream());
    std::vector<std::unique_ptr<workload::LoadGen>> gens;
    for (int i = 0; i < kClusterMachines; ++i) {
        unsigned home = static_cast<unsigned>(i) % shards;
        sim::ShardedSim::Scope scope(ss, home);
        auto &nic = nw.addNic("clients" + std::to_string(i));
        workload::LoadGenConfig lg;
        lg.nic = &nic;
        lg.target = {nodes[0], 7000};
        lg.openRate = load.rate / kClusterMachines;
        lg.openPorts = 256;
        lg.logicalClients = kLogicalClients / kClusterMachines;
        lg.warmup = load.warmup;
        lg.duration = load.duration;
        lg.requestTimeout = load.timeout;
        lg.slo = load.slo;
        lg.seed = o.stream() + static_cast<std::uint64_t>(i);
        lg.metricsName = "workload.loadgen.m" + std::to_string(i);
        lg.makeRequest = [salt](std::uint64_t seq, sim::Rng &) {
            return echoPayload(salt, seq);
        };
        lg.validate = [salt](const net::Message &m) {
            return echoMatches(salt, m);
        };
        lg.routeTarget = [ring, nodes](std::uint64_t clientId) {
            return net::Address{
                nodes[static_cast<std::size_t>(ring.route(clientId))],
                7000};
        };
        instrument(lg, o, ss.shard(home), r);
        gens.push_back(
            std::make_unique<workload::LoadGen>(ss.shard(home), lg));
        gens.back()->start();
    }
    r.setup.loadgen += hs.add("setup.loadgen", l0, Clock::now());

    r.runLoop([&](sim::Tick t) { ss.runUntil(t); },
              gens[0]->windowEnd() + load.timeout + 10_ms, hs);

    for (unsigned s = 0; s < shards; ++s)
        r.events += ss.shard(s).eventsExecuted();
    for (const auto &g : gens)
        r.addGen(*g);
    r.addGpus(ms);
    r.addRegistries(ss.registries());
    r.shardWindows = ss.stats().counterValue("windows");
    r.shardStalls = ss.stats().counterValue("barrier_stalls");
    r.shardCross = ss.stats().counterValue("cross_msgs");
    if (spans)
        r.addSpans(*spans);
    if (!o.tracePath.empty())
        writeTrace(o.tracePath, spans ? &*spans : nullptr, hs, r);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k == "--workload")
            o.workload = argv[i + 1];
        else if (k == "--seed")
            o.seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (k == "--part")
            o.part = std::strtoull(argv[i + 1], nullptr, 10);
        else if (k == "--trace")
            o.tracePath = argv[i + 1];
        else {
            std::fprintf(stderr, "unknown argument %s\n", k.c_str());
            return 2;
        }
    }

    HostSpans hs;
    Report r;
    if (o.workload == "echo_bf240")
        runEcho(o, hs, r);
    else if (o.workload == "lenet_bf")
        runLenet(o, hs, r);
    else if (o.workload == "cluster4_overload")
        runCluster(o, 1, 1, hs, r);
    else if (o.workload == "cluster4_sharded")
        runCluster(o, 4, 2, hs, r);
    else {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    std::printf("%s\n", r.json(o).c_str());
    return 0;
}
