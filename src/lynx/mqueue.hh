/**
 * @file
 * Message queue (mqueue) memory layout.
 *
 * An mqueue (paper §4.2–§4.3) is a pair of producer/consumer ring
 * buffers — RX (SNIC → accelerator) and TX (accelerator → SNIC) —
 * living in the *accelerator's* memory, plus two status registers:
 *
 *   [ RX ring: slots × slotBytes ]
 *   [ TX ring: slots × slotBytes ]
 *   [ rxCons u32 ]  written locally by the accelerator,
 *                   read by the SNIC via RDMA (lazy flow control)
 *   [ txCons u32 ]  written by the SNIC via RDMA after forwarding,
 *                   read locally by the accelerator
 *
 * Each slot carries its payload flush against a 16-byte metadata
 * trailer so that one contiguous, low-to-high RDMA write covers
 * payload + metadata + doorbell, with the doorbell bytes last — the
 * §5.1 "metadata and data coalescing" optimization, which is only
 * correct because the NIC DMA writes lower addresses first:
 *
 *   slot:  [ ...unused... | payload (len) | len u32 | tag u32 |
 *            err u32 | seq u32 ]                      ^doorbell
 *
 * The doorbell value is the 1-based running message count, so a
 * reused slot's stale doorbell (seq - slots) can never be confused
 * with a fresh one.
 */

#ifndef LYNX_LYNX_MQUEUE_HH
#define LYNX_LYNX_MQUEUE_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pcie/memory.hh"
#include "sim/logging.hh"

namespace lynx::core {

/**
 * Reserved slot error status marking a repaired gap: when failover
 * re-routes a dead mqueue's traffic, RX slots whose RDMA write was
 * lost in a partition are rewritten on revival as zero-length
 * messages with this error code so the accelerator's strict-seq
 * consumption can advance past them. gio consumes such slots
 * internally (no application delivery, no response).
 */
constexpr std::uint32_t kSlotSkipErr = 0xDEAD5C1Bu;

/** Per-message metadata trailer (paper §5.1: "The metadata ...
 *  includes total message size, error status ... and notification
 *  register (doorbell) for the queue"). */
struct SlotMeta
{
    std::uint32_t len = 0;
    std::uint32_t tag = 0;
    std::uint32_t err = 0;
    /** Doorbell: 1-based message sequence number. */
    std::uint32_t seq = 0;

    static constexpr std::uint64_t bytes = 16;
};

/** Geometry of one mqueue inside a DeviceMemory region. */
struct MqueueLayout
{
    /** Offset of the mqueue region within the device memory. */
    std::uint64_t base = 0;

    /** Ring capacity in messages (each ring). */
    std::uint32_t slots = 16;

    /** Bytes per slot, metadata included. */
    std::uint32_t slotBytes = 2048;

    /** @return maximum payload per message. */
    std::uint32_t maxPayload() const { return slotBytes - SlotMeta::bytes; }

    /** @return total region footprint. */
    std::uint64_t
    totalBytes() const
    {
        return 2ull * slots * slotBytes + 8;
    }

    /** @return offset of RX slot @p i (i taken modulo the ring). */
    std::uint64_t
    rxSlot(std::uint64_t i) const
    {
        return base + (i % slots) * slotBytes;
    }

    /** @return offset of TX slot @p i. */
    std::uint64_t
    txSlot(std::uint64_t i) const
    {
        return base + (static_cast<std::uint64_t>(slots) + i % slots) *
                          slotBytes;
    }

    /** @return offset one past the end of RX slot @p i. */
    std::uint64_t rxSlotEnd(std::uint64_t i) const
    {
        return rxSlot(i) + slotBytes;
    }

    /** @return offset one past the end of TX slot @p i. */
    std::uint64_t txSlotEnd(std::uint64_t i) const
    {
        return txSlot(i) + slotBytes;
    }

    /** @return offset of the doorbell word of RX slot @p i. */
    std::uint64_t rxDoorbell(std::uint64_t i) const
    {
        return rxSlotEnd(i) - 4;
    }

    /** @return offset of the rxCons status register. */
    std::uint64_t
    rxConsOff() const
    {
        return base + 2ull * slots * slotBytes;
    }

    /** @return offset of the txCons status register. */
    std::uint64_t txConsOff() const { return rxConsOff() + 4; }

    /** @return offset of the whole RX ring (for watchpoints). */
    std::uint64_t rxRingOff() const { return base; }

    /** @return offset of the whole TX ring (for watchpoints). */
    std::uint64_t
    txRingOff() const
    {
        return base + static_cast<std::uint64_t>(slots) * slotBytes;
    }

    /** @return byte size of one ring. */
    std::uint64_t
    ringBytes() const
    {
        return static_cast<std::uint64_t>(slots) * slotBytes;
    }
};

/**
 * Serialize @p payload + @p meta as one contiguous buffer, metadata
 * (doorbell last) trailing the payload.
 */
inline std::vector<std::uint8_t>
encodeSlotWrite(std::span<const std::uint8_t> payload, SlotMeta meta)
{
    LYNX_DEBUG_ASSERT(payload.size() == meta.len,
                      "metadata length mismatch");
    std::vector<std::uint8_t> buf(payload.size() + SlotMeta::bytes);
    std::copy(payload.begin(), payload.end(), buf.begin());
    auto putU32 = [&](std::size_t off, std::uint32_t v) {
        buf[off] = static_cast<std::uint8_t>(v);
        buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
        buf[off + 2] = static_cast<std::uint8_t>(v >> 16);
        buf[off + 3] = static_cast<std::uint8_t>(v >> 24);
    };
    std::size_t m = payload.size();
    putU32(m + 0, meta.len);
    putU32(m + 4, meta.tag);
    putU32(m + 8, meta.err);
    putU32(m + 12, meta.seq);
    return buf;
}

/** @return the in-memory start offset of a slot write for @p len
 *  bytes of payload ending at @p slotEnd. */
inline std::uint64_t
slotWriteOffset(std::uint64_t slotEnd, std::uint32_t len)
{
    return slotEnd - SlotMeta::bytes - len;
}

/** Read the metadata trailer of the slot ending at @p slotEnd. */
inline SlotMeta
readSlotMeta(const pcie::DeviceMemory &mem, std::uint64_t slotEnd)
{
    SlotMeta meta;
    meta.len = mem.readU32(slotEnd - 16);
    meta.tag = mem.readU32(slotEnd - 12);
    meta.err = mem.readU32(slotEnd - 8);
    meta.seq = mem.readU32(slotEnd - 4);
    return meta;
}

/** Read the payload of a slot whose metadata is @p meta. */
inline std::vector<std::uint8_t>
readSlotPayload(const pcie::DeviceMemory &mem, std::uint64_t slotEnd,
                const SlotMeta &meta)
{
    std::vector<std::uint8_t> out(meta.len);
    mem.read(slotWriteOffset(slotEnd, meta.len),
             std::span<std::uint8_t>(out));
    return out;
}

/** One message of a multi-slot batch write. */
struct SlotRecord
{
    std::span<const std::uint8_t> payload;
    SlotMeta meta;
};

namespace detail {

/** Shared body of encodeRxBatchSegment/encodeTxBatchSegment:
 *  serialize @p recs against the slot geometry returned by
 *  @p slotEndOf (absolute end offset of slot i). */
template <typename SlotEndFn>
inline std::pair<std::uint64_t, std::vector<std::uint8_t>>
encodeBatchSegment(const MqueueLayout &l, std::uint64_t firstSlot,
                   std::span<const SlotRecord> recs, SlotEndFn slotEndOf)
{
    LYNX_DEBUG_ASSERT(!recs.empty(), "empty batch segment");
    LYNX_DEBUG_ASSERT(firstSlot % l.slots + recs.size() <= l.slots,
                      "batch segment wraps the ring");
    std::uint64_t begin =
        slotWriteOffset(slotEndOf(firstSlot), recs[0].meta.len);
    std::uint64_t end = slotEndOf(firstSlot + recs.size() - 1);
    std::vector<std::uint8_t> buf(end - begin, 0);
    for (std::size_t j = 0; j < recs.size(); ++j) {
        const SlotRecord &r = recs[j];
        LYNX_DEBUG_ASSERT(r.payload.size() == r.meta.len,
                          "metadata length mismatch");
        std::uint64_t slotEnd = slotEndOf(firstSlot + j);
        std::size_t at = static_cast<std::size_t>(
            slotWriteOffset(slotEnd, r.meta.len) - begin);
        std::copy(r.payload.begin(), r.payload.end(), buf.begin() + at);
        auto putU32 = [&](std::size_t off, std::uint32_t v) {
            buf[off] = static_cast<std::uint8_t>(v);
            buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
            buf[off + 2] = static_cast<std::uint8_t>(v >> 16);
            buf[off + 3] = static_cast<std::uint8_t>(v >> 24);
        };
        std::size_t m = at + r.payload.size();
        putU32(m + 0, r.meta.len);
        putU32(m + 4, r.meta.tag);
        putU32(m + 8, r.meta.err);
        putU32(m + 12, r.meta.seq);
    }
    return {begin, std::move(buf)};
}

} // namespace detail

/**
 * Serialize @p recs into ONE contiguous buffer covering RX slots
 * [firstSlot, firstSlot + recs.size()) — the batched variant of
 * encodeSlotWrite(). The buffer starts at the first record's payload
 * and ends at the last slot's doorbell, so a single low-to-high RDMA
 * write lands every payload, every metadata trailer, and finally the
 * trailing doorbell (the highest seq, covering the whole batch).
 * Inter-slot dead space (the unused head of slots 2..N) is
 * zero-filled; its serialization cost is the price of coalescing.
 *
 * @pre the segment does not wrap the ring:
 *      (firstSlot % slots) + recs.size() <= slots.
 * @return {target offset of the write, buffer}.
 */
inline std::pair<std::uint64_t, std::vector<std::uint8_t>>
encodeRxBatchSegment(const MqueueLayout &l, std::uint64_t firstSlot,
                     std::span<const SlotRecord> recs)
{
    return detail::encodeBatchSegment(
        l, firstSlot, recs,
        [&l](std::uint64_t i) { return l.rxSlotEnd(i); });
}

/**
 * TX-side twin of encodeRxBatchSegment: serialize @p recs into one
 * contiguous buffer covering TX slots [firstSlot, firstSlot +
 * recs.size()). Used by gio's sendBatch so one low-to-high local
 * write commits a whole run of response slots, every doorbell
 * landing after its payload and the batch's highest doorbell last —
 * the accelerator-side mirror of the §5.1 coalescing rule.
 *
 * @pre the segment does not wrap the ring.
 * @return {target offset of the write, buffer}.
 */
inline std::pair<std::uint64_t, std::vector<std::uint8_t>>
encodeTxBatchSegment(const MqueueLayout &l, std::uint64_t firstSlot,
                     std::span<const SlotRecord> recs)
{
    return detail::encodeBatchSegment(
        l, firstSlot, recs,
        [&l](std::uint64_t i) { return l.txSlotEnd(i); });
}

} // namespace lynx::core

#endif // LYNX_LYNX_MQUEUE_HH
