/**
 * @file
 * gio — the accelerator-side I/O library.
 *
 * This is the "lightweight I/O layer on top of mqueues" of paper
 * §4.3/§5.3: a few wrappers over the producer/consumer rings that
 * provide familiar recv/send calls with zero copy. It needs nothing
 * from the accelerator beyond local memory access (plus the ordering
 * guarantees discussed in §4.4), which is what makes Lynx portable:
 * the same class serves the GPU persistent kernels and the Intel VCA
 * integration (where the paper quotes "20 Lines of Code").
 *
 * Timing: every local poll/access costs `localLatency`; payload
 * construction costs `perByte`. Polling is "virtualized": instead of
 * spinning, the task parks on a Gate that a DeviceMemory watchpoint
 * opens when the SNIC's RDMA write lands, then pays the poll latency
 * it would have spent observing the doorbell.
 */

#ifndef LYNX_LYNX_GIO_HH
#define LYNX_LYNX_GIO_HH

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "lynx/mqueue.hh"
#include "pcie/memory.hh"
#include "sim/co.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace lynx::core {

/** Accelerator-side timing parameters. */
struct GioConfig
{
    /** Local memory access/poll latency. */
    sim::Tick localLatency = sim::nanoseconds(200);

    /** Per-byte cost of reading/writing payload in local memory. */
    double perByte = 0.15;

    /** Sweep width of every receive: on, one doorbell poll drains
     *  the whole run of ready slots (one poll latency, one
     *  consumer-register update) and serves the surplus from a local
     *  staging queue; off (default), a receive of n messages sweeps
     *  at most n slots, so recv() pays one poll + one register write
     *  per message. */
    bool rxBurst = false;
};

/** A message as seen by accelerator code. */
struct GioMessage
{
    std::vector<std::uint8_t> payload;

    /** Correlation tag; a response must echo the request's tag. */
    std::uint32_t tag = 0;

    /** Error status propagated by the SNIC (0 = none). */
    std::uint32_t err = 0;
};

/** One outgoing response of a sendBatch() call. */
struct GioTxItem
{
    /** Correlation tag echoed from the request. */
    std::uint32_t tag = 0;

    /** Response payload (referenced, not copied; must stay alive
     *  across the sendBatch await). */
    std::span<const std::uint8_t> payload;

    /** Error status to propagate (0 = none). */
    std::uint32_t err = 0;
};

/** Accelerator-side handle of one mqueue. */
class AccelQueue
{
  public:
    AccelQueue(sim::Simulator &sim, std::string name,
               pcie::DeviceMemory &mem, MqueueLayout layout,
               GioConfig cfg = {});

    AccelQueue(const AccelQueue &) = delete;
    AccelQueue &operator=(const AccelQueue &) = delete;

    ~AccelQueue();

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return the queue geometry. */
    const MqueueLayout &layout() const { return layout_; }

    /** Await the next request from the RX ring (zero-copy read of
     *  accelerator-local memory): a recvBatch() of one. */
    sim::Co<GioMessage> recv();

    /**
     * Await at least one request, then drain the ready RX slots in
     * one sweep of at most @p maxN slots (the whole ring with
     * rxBurst): one doorbell poll discovers the run of consecutive
     * ready slots, and one consumer-register update acknowledges all
     * of them (dynamic request batching, the accelerator-side
     * consumer of the SNIC's batched RDMA pushes). Swept messages
     * beyond @p maxN stay staged for the next call. Always returns
     * 1..maxN messages.
     */
    sim::Co<std::vector<GioMessage>> recvBatch(std::size_t maxN);

    /**
     * Non-blocking variant of recvBatch(): pays one doorbell poll and
     * returns whatever is ready *now* (possibly nothing). Used by the
     * services' bounded-linger policy to top up a partial batch.
     */
    sim::Co<std::vector<GioMessage>> tryRecvBatch(std::size_t maxN);

    /**
     * Write a message into the TX ring and ring its doorbell: a
     * sendBatch() of one. Suspends while the TX ring is full (SNIC
     * not yet forwarded).
     */
    sim::Co<void> send(std::uint32_t tag,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t err = 0);

    /**
     * Commit @p items into consecutive TX slots under a single
     * contiguous low-to-high write per ring segment — payloads first,
     * each doorbell after its payload, the batch's highest doorbell
     * last — so the SNIC forwarder's batched TX drain observes the
     * whole run at once. Splits only at ring wrap or when flow
     * control runs out of credit (then stalls until the SNIC returns
     * credit). A one-item call writes exactly encodeSlotWrite()'s
     * bytes at slotWriteOffset().
     */
    sim::Co<void> sendBatch(std::span<const GioTxItem> items);

    /** Messages received / sent counters. */
    sim::StatSet &stats() { return stats_; }

  private:
    /**
     * The one receive path: while nothing is staged, poll the
     * doorbell, sweepReady() the run of ready slots (the whole ring
     * with rxBurst, else at most @p maxN) and pay its copy and one
     * consumer-register write; then hand out up to @p maxN staged
     * messages. With @p park false, gives up after one poll and may
     * return nothing.
     */
    sim::Co<std::vector<GioMessage>> take(std::size_t maxN, bool park);

    /** What one sweepReady() consumed. */
    struct Sweep
    {
        std::uint64_t drained = 0; ///< slots consumed
        std::uint64_t skipped = 0; ///< of which repaired-gap markers
        std::uint64_t bytes = 0;   ///< payload bytes staged
    };

    /** Stage the run of consecutive ready RX slots — at most
     *  @p maxSlots of them — into burst_ (@pre slot rxConsumed_ is
     *  ready and its poll latency has been paid). Repaired-gap skip
     *  slots are consumed without staging, so burst_ may stay empty.
     *  Takes no simulated time: take() charges the sweep. */
    Sweep sweepReady(std::uint64_t maxSlots);

    /** Extend 32-bit register value @p observed onto 64-bit @p cache. */
    static std::uint64_t
    advance(std::uint64_t cache, std::uint32_t observed)
    {
        return cache + static_cast<std::uint32_t>(
                           observed - static_cast<std::uint32_t>(cache));
    }

    sim::Simulator &sim_;
    std::string name_;
    pcie::DeviceMemory &mem_;
    MqueueLayout layout_;
    GioConfig cfg_;

    std::uint64_t rxConsumed_ = 0;
    std::uint64_t txProduced_ = 0;
    std::uint64_t txConsCache_ = 0;

    /** Messages drained by a sweep but not yet handed out (their
     *  poll + copy costs were paid at sweep time). */
    std::deque<GioMessage> burst_;

    /** sendBatch()'s segment records, reused across calls. */
    std::vector<SlotRecord> txRecs_;

    sim::Gate rxActivity_;
    sim::Gate txConsActivity_;
    std::uint64_t rxWatchId_ = 0;
    std::uint64_t txConsWatchId_ = 0;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction. */
    sim::Counter *cRxMsgs_;
    sim::Counter *cRxBytes_;
    sim::Counter *cRxBursts_;
    sim::Counter *cRxSkipped_;
    sim::Counter *cTxMsgs_;
    sim::Counter *cTxBytes_;
    sim::Counter *cTxStalls_;
    sim::Counter *cBatchRecvs_;
    sim::Counter *cBatchRecvMsgs_;
    sim::Counter *cBatchSends_;
    sim::Counter *cBatchSendMsgs_;
    sim::Histogram *hBatchRecvSize_;
    sim::Histogram *hBatchSendSize_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_GIO_HH
