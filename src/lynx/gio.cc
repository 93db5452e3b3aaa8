#include "gio.hh"

#include <algorithm>

#include "sim/span.hh"

namespace lynx::core {

AccelQueue::AccelQueue(sim::Simulator &sim, std::string name,
                       pcie::DeviceMemory &mem, MqueueLayout layout,
                       GioConfig cfg)
    : sim_(sim), name_(std::move(name)), mem_(mem), layout_(layout),
      cfg_(cfg), rxActivity_(sim), txConsActivity_(sim)
{
    // Doorbells arrive via the SNIC's RDMA writes into the RX ring;
    // TX-ring credit returns arrive as RDMA writes to txCons.
    rxWatchId_ = mem_.watch(layout_.rxRingOff(), layout_.ringBytes(),
                            [this](auto, auto) { rxActivity_.open(); });
    txConsWatchId_ = mem_.watch(layout_.txConsOff(), 4,
                                [this](auto, auto) {
                                    txConsActivity_.open();
                                });

    cRxMsgs_ = &stats_.counter("rx_msgs");
    cRxBytes_ = &stats_.counter("rx_bytes");
    cRxBursts_ = &stats_.counter("rx_bursts");
    cRxSkipped_ = &stats_.counter("rx_skipped");
    cTxMsgs_ = &stats_.counter("tx_msgs");
    cTxBytes_ = &stats_.counter("tx_bytes");
    cTxStalls_ = &stats_.counter("tx_stalls");
    cBatchRecvs_ = &stats_.counter("batch.recvs");
    cBatchRecvMsgs_ = &stats_.counter("batch.recv_msgs");
    cBatchSends_ = &stats_.counter("batch.sends");
    cBatchSendMsgs_ = &stats_.counter("batch.send_msgs");
    hBatchRecvSize_ = &stats_.histogram("batch.recv_size");
    hBatchSendSize_ = &stats_.histogram("batch.send_size");

    sim_.metrics().add("gio." + name_, stats_);
}

AccelQueue::~AccelQueue()
{
    sim_.metrics().remove(stats_);
    mem_.unwatch(rxWatchId_);
    mem_.unwatch(txConsWatchId_);
}

sim::Co<GioMessage>
AccelQueue::recv()
{
    std::vector<GioMessage> one = co_await take(1, /*park=*/true);
    co_return std::move(one.front());
}

sim::Co<std::vector<GioMessage>>
AccelQueue::recvBatch(std::size_t maxN)
{
    return take(maxN, /*park=*/true);
}

sim::Co<std::vector<GioMessage>>
AccelQueue::tryRecvBatch(std::size_t maxN)
{
    return take(maxN, /*park=*/false);
}

sim::Co<std::vector<GioMessage>>
AccelQueue::take(std::size_t maxN, bool park)
{
    LYNX_ASSERT(maxN >= 1, name_, ": receive of ", maxN, " messages");
    // Earlier sweeps may have staged more than their caller took.
    while (burst_.empty()) {
        rxActivity_.close();
        // One doorbell poll discovers the whole run of ready slots.
        co_await sim::sleep(cfg_.localLatency);
        SlotMeta meta = readSlotMeta(mem_, layout_.rxSlotEnd(rxConsumed_));
        if (meta.seq == static_cast<std::uint32_t>(rxConsumed_ + 1)) {
            Sweep sw = sweepReady(cfg_.rxBurst ? layout_.slots : maxN);
            // Only staged messages cost a copy: a sweep of nothing
            // but repaired-gap markers does not even yield (and
            // stages nothing, so a parking take polls again).
            if (sw.drained > sw.skipped)
                co_await sim::sleep(static_cast<sim::Tick>(
                    cfg_.perByte * static_cast<double>(sw.bytes)));
            // One consumer-register update acknowledges the whole run
            // (a local write; the SNIC reads it lazily over RDMA for
            // flow control).
            rxConsumed_ += sw.drained;
            mem_.writeU32(layout_.rxConsOff(),
                          static_cast<std::uint32_t>(rxConsumed_));
            co_await sim::sleep(cfg_.localLatency);
            cRxMsgs_->add(sw.drained - sw.skipped);
            cRxBytes_->add(sw.bytes);
            cRxBursts_->add();
            if (sw.skipped > 0)
                cRxSkipped_->add(sw.skipped);
        } else if (park) {
            co_await rxActivity_.wait();
        }
        if (!park)
            break;
    }
    // Hand out staged messages, stamping AppStart on each (their
    // poll and copy costs were paid at sweep time).
    std::vector<GioMessage> out;
    out.reserve(std::min(maxN, burst_.size()));
    sim::SpanCollector *spans = sim_.spans();
    while (out.size() < maxN && !burst_.empty()) {
        GioMessage msg = std::move(burst_.front());
        burst_.pop_front();
        if (spans)
            spans->stampTag(&mem_, layout_.base, msg.tag,
                            sim::Stage::AppStart, sim_.now());
        out.push_back(std::move(msg));
    }
    if (!out.empty()) {
        cBatchRecvs_->add();
        cBatchRecvMsgs_->add(out.size());
        hBatchRecvSize_->record(out.size());
    }
    co_return out;
}

AccelQueue::Sweep
AccelQueue::sweepReady(std::uint64_t maxSlots)
{
    // Multi-slot doorbell consumption: a batched SNIC write lands all
    // its doorbells atomically, so the run of consecutive ready slots
    // from rxConsumed_ is exactly the (tail of the) batch, and the
    // one doorbell poll take() already paid discovered all of it.
    // Repaired-gap markers (kSlotSkipErr) are consumed but never
    // staged for delivery.
    Sweep sw;
    const std::uint64_t width =
        std::min<std::uint64_t>(maxSlots, layout_.slots);
    while (sw.drained < width) {
        std::uint64_t slot = rxConsumed_ + sw.drained;
        std::uint64_t slotEnd = layout_.rxSlotEnd(slot);
        SlotMeta meta = readSlotMeta(mem_, slotEnd);
        if (meta.seq != static_cast<std::uint32_t>(slot + 1))
            break;
        ++sw.drained;
        if (meta.err == kSlotSkipErr) {
            ++sw.skipped;
            continue;
        }
        GioMessage msg;
        msg.tag = meta.tag;
        msg.err = meta.err;
        msg.payload = readSlotPayload(mem_, slotEnd, meta);
        if (sim::SpanCollector *spans = sim_.spans())
            spans->stampTag(&mem_, layout_.base, meta.tag,
                            sim::Stage::GioPop, sim_.now());
        sw.bytes += meta.len;
        burst_.push_back(std::move(msg));
    }
    LYNX_ASSERT(sw.drained > 0, name_, ": sweep found no doorbell");
    return sw;
}

sim::Co<void>
AccelQueue::send(std::uint32_t tag, std::span<const std::uint8_t> payload,
                 std::uint32_t err)
{
    const GioTxItem item{tag, payload, err};
    co_await sendBatch({&item, 1});
}

sim::Co<void>
AccelQueue::sendBatch(std::span<const GioTxItem> items)
{
    if (items.empty())
        co_return;
    // The app hands over every response here: compute for the whole
    // batch ends now; what follows is commit cost and queueing.
    sim::SpanCollector *spans = sim_.spans();
    for (const GioTxItem &it : items) {
        LYNX_ASSERT(it.payload.size() <= layout_.maxPayload(), name_,
                    ": payload of ", it.payload.size(),
                    " bytes exceeds slot");
        if (spans)
            spans->stampTag(&mem_, layout_.base, it.tag,
                            sim::Stage::AppEnd, sim_.now());
    }
    std::size_t sent = 0;
    while (sent < items.size()) {
        // Flow control: wait for at least one TX-ring credit.
        for (;;) {
            txConsActivity_.close();
            co_await sim::sleep(cfg_.localLatency);
            txConsCache_ =
                advance(txConsCache_, mem_.readU32(layout_.txConsOff()));
            if (txProduced_ - txConsCache_ < layout_.slots)
                break;
            cTxStalls_->add();
            co_await txConsActivity_.wait();
        }
        // Take as many items as credit allows without wrapping the
        // ring: one contiguous write commits the whole segment.
        std::uint64_t credit =
            layout_.slots - (txProduced_ - txConsCache_);
        std::uint64_t untilWrap =
            layout_.slots - txProduced_ % layout_.slots;
        std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
            {items.size() - sent, credit, untilWrap}));
        // The scratch records are only read by the encoder below,
        // before the write suspends, so concurrent senders can share
        // them.
        txRecs_.clear();
        std::uint64_t segBytes = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const GioTxItem &it = items[sent + j];
            SlotMeta meta;
            meta.len = static_cast<std::uint32_t>(it.payload.size());
            meta.tag = it.tag;
            meta.err = it.err;
            meta.seq = static_cast<std::uint32_t>(txProduced_ + j + 1);
            txRecs_.push_back({it.payload, meta});
            segBytes += it.payload.size();
        }
        auto [off, buf] =
            encodeTxBatchSegment(layout_, txProduced_, txRecs_);
        co_await sim::sleep(
            cfg_.localLatency +
            static_cast<sim::Tick>(cfg_.perByte *
                                   static_cast<double>(segBytes)));
        // One contiguous low-to-high write: every payload, every
        // doorbell after its payload, the segment's highest doorbell
        // last. The SNIC-side TX-ring watchpoint wakes the forwarder
        // once for the whole segment.
        mem_.write(off, buf);
        txProduced_ += n;
        sent += n;
        cTxMsgs_->add(n);
        cTxBytes_->add(segBytes);
    }
    cBatchSends_->add();
    cBatchSendMsgs_->add(items.size());
    hBatchSendSize_->record(items.size());
}

} // namespace lynx::core
