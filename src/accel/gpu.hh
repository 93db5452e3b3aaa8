/**
 * @file
 * GPU accelerator model.
 *
 * The paper uses NVIDIA K40m/K80 GPUs in two roles:
 *
 *  - *host-centric baseline*: the CPU launches one short kernel per
 *    request through CUDA streams; the closed-source driver
 *    serializes submissions (a single lock) and each call costs host
 *    CPU time — the "accelerator invocation overhead" of §3.2;
 *  - *Lynx / persistent kernels*: a kernel occupying up to
 *    `blockSlots` threadblocks runs forever, polls mqueues in device
 *    memory, and (for LeNet) spawns child kernels with dynamic
 *    parallelism, never involving the host.
 *
 * The model captures what those experiments resolve: threadblock
 * occupancy, ordered streams, the driver lock and per-call CPU costs,
 * cudaMemcpyAsync's fixed overhead, gdrcopy-style BAR access, and
 * device-local memory polling latency. Kernels carry an optional
 * `body` closure so application kernels compute *real results*
 * (LeNet, LBP) that flow back to clients byte-for-byte.
 */

#ifndef LYNX_ACCEL_GPU_HH
#define LYNX_ACCEL_GPU_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "sim/channel.hh"
#include "sim/co.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace lynx::accel {

/** Static parameters of one GPU. */
struct GpuConfig
{
    /** Maximum concurrently resident threadblocks (240 on K40m). */
    int blockSlots = 240;

    /** Kernel-duration multiplier relative to K40m (K80 ≈ 1.06:
     *  paper footnote: K80 reaches 3300 req/s where K40m does 3500). */
    double clockScale = 1.0;

    /** BAR-exposed device memory size. */
    std::uint64_t memBytes = 16ull << 20;

    /** Per-child overhead of a device-side (dynamic parallelism)
     *  kernel launch. */
    sim::Tick deviceLaunchOverhead = sim::nanoseconds(1500);

    /** Occupancy-aware batched-launch model (dynamic request
     *  batching): marginal duration of each additional batched item
     *  relative to the first, below the saturation point. Canonical
     *  values live in lynx/calibration.hh (gpuBatch*); accel/ sits
     *  below lynx/, so the defaults here are numeric copies that
     *  test_calibration pins equal. */
    double batchMarginalItemCost = 0.35;

    /** Batched items beyond which each extra item costs full serial
     *  time (the device is saturated). */
    int batchOccupancySaturation = 32;
};

/** Host-driver timing parameters (shared by all streams of a GPU). */
struct GpuDriverConfig
{
    /** Host CPU time per driver call (memcpy/launch submission),
     *  spent holding the global driver lock. */
    sim::Tick submitCost = sim::microseconds(4);

    /** Extra CPU time per call when the lock is contended (many
     *  streams/threads — §3.2's "NVIDIA driver bottleneck"). */
    sim::Tick contendedExtra = sim::nanoseconds(2500);

    /** Host CPU time to observe a stream completion
     *  (cudaStreamSynchronize-style polling). */
    sim::Tick syncCost = sim::microseconds(3);

    /** Residual device-side latency of a kernel launch after the
     *  submission returns (command fetch, block scheduling). */
    sim::Tick launchResidual = sim::microseconds(7);

    /** Residual latency of an async memcpy after submission (DMA
     *  engine start-up; the "7-8 us constant overhead" of §5.1 is
     *  submitCost + this + fabric DMA latency). */
    sim::Tick memcpyResidual = sim::microseconds(7);

    /** gdrcopy: host CPU store/load to BAR-mapped device memory —
     *  fixed MMIO cost plus per-byte write-combining cost. Blocking
     *  (§5.1: "gdrcopy blocks until the transfer is completed"). */
    sim::Tick gdrBase = sim::nanoseconds(900);
    double gdrPerByte = 2.2;
};

/**
 * FIFO threadblock slot pool. Kernels are admitted in launch order:
 * a big kernel at the head blocks later small ones (hardware work
 * scheduler behaviour), which keeps admission deterministic.
 */
class SlotPool
{
  public:
    SlotPool(sim::Simulator &sim, int slots) : sim_(sim), free_(slots) {}

    /** @return currently free slots. */
    int free() const { return free_; }

    /** Await @p n slots. */
    sim::Co<void> acquire(int n);

    /** Return @p n slots and admit waiting kernels. */
    void release(int n);

  private:
    struct Waiter
    {
        Waiter(sim::Simulator &sim, int n_) : n(n_), gate(sim) {}

        int n;
        sim::Gate gate;
    };

    void admit();

    sim::Simulator &sim_;
    int free_;
    std::deque<std::shared_ptr<Waiter>> waiters_;
};

/** One GPU: device memory, threadblock slots, kernel execution. */
class Gpu
{
  public:
    Gpu(sim::Simulator &sim, std::string name, pcie::Fabric &fabric,
        GpuConfig cfg = {});

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return configuration. */
    const GpuConfig &config() const { return cfg_; }

    /** @return the PCIe fabric this GPU sits on. */
    pcie::Fabric &fabric() { return fabric_; }

    /** @return BAR-exposed device memory. */
    pcie::DeviceMemory &memory() { return mem_; }

    /** @return threadblock slot pool. */
    SlotPool &slots() { return slots_; }

    /** @return duration @p d scaled by this GPU's clock. */
    sim::Tick
    scaled(sim::Tick d) const
    {
        return static_cast<sim::Tick>(static_cast<double>(d) *
                                      cfg_.clockScale);
    }

    /**
     * Execute a kernel: wait for @p blocks slots, run for @p duration
     * (clock-scaled), then invoke @p body (the kernel's real
     * computation takes effect at completion) and free the slots.
     */
    sim::Co<void> execKernel(int blocks, sim::Tick duration,
                             std::function<void()> body = {});

    /**
     * Device-side (dynamic parallelism) launch: adds the device
     * launch overhead, then behaves like execKernel. Used by
     * persistent kernels (LeNet inference, §6.3) without any host
     * involvement.
     */
    sim::Co<void> deviceLaunch(int blocks, sim::Tick duration,
                               std::function<void()> body = {});

    /**
     * Duration of one kernel that processes @p n batched items of
     * @p perItem compute each (unscaled). The occupancy-aware model:
     * each extra item up to `batchOccupancySaturation` costs
     * `batchMarginalItemCost` of the first (it fills SMs the first
     * item left idle); past saturation extra items serialize.
     * @p n = 1 returns @p perItem exactly.
     */
    sim::Tick
    batchedDuration(sim::Tick perItem, int n) const
    {
        LYNX_ASSERT(n >= 1, name_, ": batched duration of ", n, " items");
        int occ = std::min(n, cfg_.batchOccupancySaturation);
        double factor = 1.0 +
                        static_cast<double>(occ - 1) *
                            cfg_.batchMarginalItemCost +
                        static_cast<double>(n - occ);
        return static_cast<sim::Tick>(static_cast<double>(perItem) *
                                      factor);
    }

    /**
     * Device-side launch of one kernel over @p n batched items: the
     * launch overhead is paid ONCE for the batch and the kernel runs
     * for batchedDuration(@p perItem, @p n). @p n = 1 is tick-exact
     * with deviceLaunch(blocks, perItem).
     */
    sim::Co<void> batchedLaunch(int blocks, sim::Tick perItem, int n,
                                std::function<void()> body = {});

    /** Kernel/occupancy statistics. */
    sim::StatSet &stats() { return stats_; }

    sim::Simulator &sim() { return sim_; }

  private:
    sim::Simulator &sim_;
    std::string name_;
    pcie::Fabric &fabric_;
    GpuConfig cfg_;
    pcie::DeviceMemory mem_;
    SlotPool slots_;
    sim::StatSet stats_;

    /** Per-launch metrics handles, resolved once at construction. */
    sim::Counter *cKernels_;
    sim::Counter *cDeviceLaunches_;
    sim::Counter *cBatchedItems_;
    sim::Histogram *hBatchSize_;
};

/**
 * The host-side CUDA driver of one GPU: a global submission lock and
 * per-call CPU costs. All streams of the GPU share one driver.
 */
class GpuDriver
{
  public:
    GpuDriver(sim::Simulator &sim, Gpu &gpu, GpuDriverConfig cfg = {});

    GpuDriver(const GpuDriver &) = delete;
    GpuDriver &operator=(const GpuDriver &) = delete;

    /** @return the managed GPU. */
    Gpu &gpu() { return gpu_; }

    /** @return driver configuration. */
    const GpuDriverConfig &config() const { return cfg_; }

    /**
     * Charge one driver call on @p core while holding the global
     * driver lock; contended calls cost extra.
     */
    sim::Co<void> driverCall(sim::Core &core);

    /**
     * gdrcopy-style blocking BAR write/read of @p bytes from @p core
     * (no driver lock: it is a plain mapped-memory access).
     */
    sim::Co<void> gdrAccess(sim::Core &core, std::uint64_t bytes);

    sim::StatSet &stats() { return stats_; }

  private:
    friend class Stream;

    sim::Simulator &sim_;
    Gpu &gpu_;
    GpuDriverConfig cfg_;
    sim::Semaphore lock_;
    sim::StatSet stats_;

    /** Per-call metrics handles, resolved once at construction. */
    sim::Counter *cDriverCalls_;
    sim::Counter *cContendedCalls_;
    sim::Counter *cGdrAccesses_;
};

/**
 * A CUDA stream: an ordered queue of device operations. Submissions
 * charge host CPU through the driver; completions are awaited with
 * sync(). Matches the baseline server's "pool of concurrent CUDA
 * streams, each handling one network request" (§6.2).
 */
class Stream
{
  public:
    Stream(sim::Simulator &sim, GpuDriver &driver);

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /**
     * Async host-to-device copy of @p bytes, submitted from @p core.
     * Returns when the submission returns; the copy itself completes
     * in stream order.
     */
    sim::Co<void> memcpyH2D(sim::Core &core, std::uint64_t bytes);

    /** Async device-to-host copy (same shape as memcpyH2D). */
    sim::Co<void> memcpyD2H(sim::Core &core, std::uint64_t bytes);

    /**
     * Async kernel launch of @p blocks × @p duration with optional
     * completion @p body.
     */
    sim::Co<void> launch(sim::Core &core, int blocks, sim::Tick duration,
                         std::function<void()> body = {});

    /** Block on @p core until all queued work completed. */
    sim::Co<void> sync(sim::Core &core);

  private:
    /** Device-side op: runs in stream order on the device. */
    using DeviceOp = std::function<sim::Co<void>()>;

    /** Charge the driver call and enqueue @p deviceWork in order. */
    sim::Co<void> submit(sim::Core &core, DeviceOp deviceWork);

    /** Per-stream device executor task body. */
    sim::Task run();

    sim::Simulator &sim_;
    GpuDriver &driver_;
    sim::Channel<DeviceOp> devQueue_;
    /** In-flight op count + idle gate for sync(). */
    int inflight_ = 0;
    sim::Gate idle_;
};

} // namespace lynx::accel

#endif // LYNX_ACCEL_GPU_HH
