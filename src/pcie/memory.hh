/**
 * @file
 * BAR-exposed device memory.
 *
 * A DeviceMemory is a byte array standing in for the part of an
 * accelerator's memory that the device exposes on the PCIe bus via
 * its Base Address Register (the mechanism GPUDirect RDMA relies on,
 * paper §4.4). Message queues live here as real bytes: the SmartNIC
 * writes them remotely via RDMA, and the accelerator-side I/O library
 * reads them locally.
 *
 * Watchpoints let simulated pollers sleep instead of busy-spinning:
 * a write overlapping a watched range fires its callback, which wakes
 * the poller; the poller then charges itself the discovery latency
 * real polling would have cost. (Real hardware polls; the simulation
 * is event-driven. This "virtual polling" keeps timing faithful
 * without generating unbounded idle events; see DESIGN.md.)
 *
 * Watchers are indexed by start offset, so a write costs a binary
 * search plus the watchers that start near it, however many mqueues
 * share the region (docs/INTERNALS.md §2 has the firing rules).
 *
 * The bytes are demand-zero anonymous pages: a region reads as zeros
 * but costs resident memory only for the pages that are written, so
 * a 16 MiB GPU serving one ring holds one ring's worth of pages.
 */

#ifndef LYNX_PCIE_MEMORY_HH
#define LYNX_PCIE_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <sys/mman.h>

#include "sim/logging.hh"

namespace lynx::pcie {

/** A contiguous, bounds-checked device memory region. */
class DeviceMemory
{
  public:
    /** Callback invoked after a write overlapping its watched range. */
    using WriteWatcher = std::function<void(std::uint64_t off,
                                            std::uint64_t len)>;

    DeviceMemory(std::string name, std::uint64_t size)
        : name_(std::move(name)), size_(size), bytes_(mapZeroed(size))
    {}

    DeviceMemory(const DeviceMemory &) = delete;
    DeviceMemory &operator=(const DeviceMemory &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return region size in bytes. */
    std::uint64_t size() const { return size_; }

    /** Copy @p data into the region at @p off; fires watchpoints. */
    void
    write(std::uint64_t off, std::span<const std::uint8_t> data)
    {
        checkRange(off, data.size());
        std::copy(data.begin(), data.end(), bytes_.get() + off);
        notify(off, data.size());
    }

    /**
     * Zero [off, off+len) without firing watchpoints. Zeroing also
     * commits the pages, so a carver calls it to pay their first-touch
     * cost up front rather than inside the timed run.
     */
    void
    clear(std::uint64_t off, std::uint64_t len)
    {
        checkRange(off, len);
        std::fill_n(bytes_.get() + off, len, std::uint8_t{0});
    }

    /** Copy @p out.size() bytes starting at @p off into @p out. */
    void
    read(std::uint64_t off, std::span<std::uint8_t> out) const
    {
        checkRange(off, out.size());
        std::copy_n(bytes_.get() + off, out.size(), out.begin());
    }

    /** Write a little-endian 32-bit word. */
    void
    writeU32(std::uint64_t off, std::uint32_t v)
    {
        std::uint8_t b[4] = {
            static_cast<std::uint8_t>(v),
            static_cast<std::uint8_t>(v >> 8),
            static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 24),
        };
        write(off, b);
    }

    /** Read a little-endian 32-bit word. */
    std::uint32_t
    readU32(std::uint64_t off) const
    {
        std::uint8_t b[4];
        read(off, b);
        return static_cast<std::uint32_t>(b[0]) |
               (static_cast<std::uint32_t>(b[1]) << 8) |
               (static_cast<std::uint32_t>(b[2]) << 16) |
               (static_cast<std::uint32_t>(b[3]) << 24);
    }

    /** Write a little-endian 64-bit word. */
    void
    writeU64(std::uint64_t off, std::uint64_t v)
    {
        writeU32(off, static_cast<std::uint32_t>(v));
        writeU32(off + 4, static_cast<std::uint32_t>(v >> 32));
    }

    /** Read a little-endian 64-bit word. */
    std::uint64_t
    readU64(std::uint64_t off) const
    {
        return static_cast<std::uint64_t>(readU32(off)) |
               (static_cast<std::uint64_t>(readU32(off + 4)) << 32);
    }

    /** @return a read-only view of [off, off+len). */
    std::span<const std::uint8_t>
    view(std::uint64_t off, std::uint64_t len) const
    {
        checkRange(off, len);
        return {bytes_.get() + off, len};
    }

    /**
     * Watch writes overlapping [off, off+len).
     * @return an id usable with unwatch().
     */
    std::uint64_t
    watch(std::uint64_t off, std::uint64_t len, WriteWatcher fn)
    {
        checkRange(off, len);
        auto pos = std::upper_bound(
            watchers_.begin(), watchers_.end(), off,
            [](std::uint64_t o, const auto &w) { return o < w->off; });
        watchers_.insert(pos, std::make_unique<Watcher>(Watcher{
                                  nextWatchId_, off, len, std::move(fn)}));
        maxLen_ = std::max(maxLen_, len);
        return nextWatchId_++;
    }

    /**
     * Remove the watchpoint @p id. Called from inside a watcher, it
     * also suppresses @p id's pending fire for the write in progress;
     * the entry is erased once the outermost write's callbacks return.
     */
    void
    unwatch(std::uint64_t id)
    {
        auto it = std::find_if(watchers_.begin(), watchers_.end(),
                               [id](const auto &w) { return w->id == id; });
        if (it == watchers_.end())
            return;
        (*it)->removed = true;
        if (notifyDepth_ == 0)
            eraseRemoved();
        else
            erasePending_ = true;
    }

  private:
    /** Returns a mapping's pages to the kernel. */
    struct Unmap
    {
        std::uint64_t len;
        void operator()(std::uint8_t *p) const { ::munmap(p, len); }
    };
    using Pages = std::unique_ptr<std::uint8_t, Unmap>;

    /**
     * Map @p size bytes of private anonymous memory. The kernel hands
     * out a zero page on first touch, so unwritten pages are neither
     * filled nor resident. (A heap block would not do: the allocator
     * may recycle one freed by an earlier region and zero it again.)
     */
    static Pages
    mapZeroed(std::uint64_t size)
    {
        if (size == 0)
            return Pages(nullptr, Unmap{0});
        void *p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        LYNX_ASSERT(p != MAP_FAILED, "cannot map ", size,
                    " bytes of device memory");
        return Pages(static_cast<std::uint8_t *>(p), Unmap{size});
    }

    struct Watcher
    {
        std::uint64_t id;
        std::uint64_t off;
        std::uint64_t len;
        WriteWatcher fn;
        bool removed = false;
    };

    /** Hits that fit inline, so the usual one-watcher write does not
     *  touch the heap. */
    static constexpr std::size_t kInlineHits = 8;

    void
    checkRange(std::uint64_t off, std::uint64_t len) const
    {
        LYNX_ASSERT(off + len <= size_,
                    "access [", off, ", ", off + len, ") out of bounds of ",
                    name_, " (size ", size_, ")");
    }

    /**
     * Fire the watchers overlapping [off, off+len) in watch-id order.
     * A watch [a, a+n) overlaps when off < a+n and a < off+len (so a
     * zero-length write or watch still hits a range strictly around
     * it). Only watchers starting in (off - maxLen_, off + len) can,
     * so the lookup is a binary search plus a scan of that window. The
     * fire set is fixed before the first callback runs: a watcher added
     * by a callback waits for the next write.
     */
    void
    notify(std::uint64_t off, std::uint64_t len)
    {
        const std::uint64_t lo = off >= maxLen_ ? off - maxLen_ + 1 : 0;
        auto it = std::lower_bound(
            watchers_.begin(), watchers_.end(), lo,
            [](const auto &w, std::uint64_t o) { return w->off < o; });
        std::array<Watcher *, kInlineHits> inlineHits{};
        std::vector<Watcher *> spill;
        std::size_t n = 0;
        for (; it != watchers_.end() && (*it)->off < off + len; ++it) {
            Watcher *w = it->get();
            if (w->removed || off >= w->off + w->len)
                continue;
            if (n < kInlineHits) {
                inlineHits[n] = w;
            } else {
                if (n == kInlineHits)
                    spill.assign(inlineHits.begin(), inlineHits.end());
                spill.push_back(w);
            }
            ++n;
        }
        if (n == 0)
            return;
        std::span<Watcher *> hits = n <= kInlineHits
                                        ? std::span(inlineHits.data(), n)
                                        : std::span(spill);
        std::sort(hits.begin(), hits.end(),
                  [](const Watcher *a, const Watcher *b) {
                      return a->id < b->id;
                  });

        // Watchers are heap-allocated and erased only once the
        // outermost notify returns, so every hit stays valid even if
        // a callback watches, unwatches or writes (nesting notify).
        ++notifyDepth_;
        for (Watcher *w : hits) {
            if (!w->removed)
                w->fn(off, len);
        }
        if (--notifyDepth_ == 0 && erasePending_)
            eraseRemoved();
    }

    /** Erase unwatched entries and re-derive the longest watched span. */
    void
    eraseRemoved()
    {
        std::erase_if(watchers_, [](const auto &w) { return w->removed; });
        erasePending_ = false;
        maxLen_ = 0;
        for (const auto &w : watchers_)
            maxLen_ = std::max(maxLen_, w->len);
    }

    std::string name_;
    std::uint64_t size_;
    Pages bytes_;
    /** Sorted by (off, id); ids grow, so inserts keep the tie order. */
    std::vector<std::unique_ptr<Watcher>> watchers_;
    /** Longest watched length among the entries in watchers_. */
    std::uint64_t maxLen_ = 0;
    /** Nesting depth of notify(); erasure waits until it is zero. */
    unsigned notifyDepth_ = 0;
    /** An unwatch() inside notify() left an entry to erase. */
    bool erasePending_ = false;
    std::uint64_t nextWatchId_ = 0;
};

} // namespace lynx::pcie

#endif // LYNX_PCIE_MEMORY_HH
