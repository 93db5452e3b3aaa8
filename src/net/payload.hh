/**
 * @file
 * Pooled message payload buffer.
 *
 * Payload replaces std::vector<uint8_t> inside net::Message. The
 * bytes live in blocks from the sim::Pool slab allocator, so the
 * steady-state data plane — a NIC delivering millions of requests —
 * recycles a fixed set of buffers instead of hitting the heap once
 * (or twice) per message. The handle itself is 16 bytes, which is
 * what keeps a by-value Message small enough for the simulator's
 * inline event storage (see sim/event.hh).
 *
 * The API mirrors the vector operations the code base actually uses;
 * reader functions should take std::span<const uint8_t> (both Payload
 * and vector convert implicitly).
 */

#ifndef LYNX_NET_PAYLOAD_HH
#define LYNX_NET_PAYLOAD_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/pool.hh"

namespace lynx::net {

/** Byte buffer backed by the slab pool. */
class Payload
{
  public:
    using value_type = std::uint8_t;
    using iterator = std::uint8_t *;
    using const_iterator = const std::uint8_t *;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    Payload() = default;

    explicit Payload(std::size_t n, std::uint8_t fill = 0)
    {
        resize(n);
        if (n)
            std::memset(data_, fill, n);
    }

    Payload(std::initializer_list<std::uint8_t> init)
    {
        assignBytes(init.begin(), init.size());
    }

    /** Implicit on purpose: producers build vectors, messages carry
     *  Payloads; `m.payload = makeRequest(...)` keeps working. */
    Payload(const std::vector<std::uint8_t> &v)
    {
        assignBytes(v.data(), v.size());
    }

    Payload(std::span<const std::uint8_t> s)
    {
        assignBytes(s.data(), s.size());
    }

    Payload(const Payload &o) { assignBytes(o.data_, o.size_); }

    Payload(Payload &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0)), cap_(std::exchange(o.cap_, 0))
    {}

    Payload &
    operator=(const Payload &o)
    {
        if (this != &o)
            assignBytes(o.data_, o.size_);
        return *this;
    }

    Payload &
    operator=(Payload &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
            cap_ = std::exchange(o.cap_, 0);
        }
        return *this;
    }

    Payload &
    operator=(const std::vector<std::uint8_t> &v)
    {
        assignBytes(v.data(), v.size());
        return *this;
    }

    Payload &
    operator=(std::initializer_list<std::uint8_t> init)
    {
        assignBytes(init.begin(), init.size());
        return *this;
    }

    ~Payload() { release(); }

    std::uint8_t *data() noexcept { return data_; }
    const std::uint8_t *data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    iterator begin() noexcept { return data_; }
    iterator end() noexcept { return data_ + size_; }
    const_iterator begin() const noexcept { return data_; }
    const_iterator end() const noexcept { return data_ + size_; }
    reverse_iterator rbegin() noexcept { return reverse_iterator(end()); }
    reverse_iterator rend() noexcept { return reverse_iterator(begin()); }
    const_reverse_iterator
    rbegin() const noexcept
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator
    rend() const noexcept
    {
        return const_reverse_iterator(begin());
    }

    std::uint8_t &operator[](std::size_t i) { return data_[i]; }
    const std::uint8_t &operator[](std::size_t i) const { return data_[i]; }

    std::uint8_t &
    at(std::size_t i)
    {
        LYNX_ASSERT(i < size_, "Payload::at out of range");
        return data_[i];
    }

    const std::uint8_t &
    at(std::size_t i) const
    {
        LYNX_ASSERT(i < size_, "Payload::at out of range");
        return data_[i];
    }

    operator std::span<const std::uint8_t>() const noexcept
    {
        return {data_, size_};
    }

    operator std::span<std::uint8_t>() noexcept { return {data_, size_}; }

    /** Explicit copy out, for code that genuinely needs a vector. */
    std::vector<std::uint8_t>
    toVector() const
    {
        return std::vector<std::uint8_t>(data_, data_ + size_);
    }

    void clear() noexcept { size_ = 0; }

    /** Grow or shrink; new bytes are zero. */
    void
    resize(std::size_t n)
    {
        if (n > cap_)
            regrow(n, /*keep=*/size_);
        if (n > size_)
            std::memset(data_ + size_, 0, n - size_);
        size_ = static_cast<std::uint32_t>(n);
    }

    void
    push_back(std::uint8_t b)
    {
        if (size_ == cap_)
            regrow(size_ + 1, size_);
        data_[size_++] = b;
    }

    void
    assign(std::size_t n, std::uint8_t fill)
    {
        if (n > cap_)
            regrow(n, 0);
        if (n)
            std::memset(data_, fill, n);
        size_ = static_cast<std::uint32_t>(n);
    }

    template <typename It>
        requires(!std::is_integral_v<It>)
    void
    assign(It first, It last)
    {
        const std::size_t n =
            static_cast<std::size_t>(std::distance(first, last));
        if (n > cap_)
            regrow(n, 0);
        size_ = static_cast<std::uint32_t>(n);
        std::uint8_t *out = data_;
        for (It it = first; it != last; ++it)
            *out++ = static_cast<std::uint8_t>(*it);
    }

    /** Append-only insert (the only form the code base uses). */
    template <typename It>
    void
    insert(iterator pos, It first, It last)
    {
        LYNX_ASSERT(pos == end(), "Payload::insert supports append only");
        const std::size_t n =
            static_cast<std::size_t>(std::distance(first, last));
        if (size_ + n > cap_)
            regrow(size_ + n, size_);
        std::uint8_t *out = data_ + size_;
        for (It it = first; it != last; ++it)
            *out++ = static_cast<std::uint8_t>(*it);
        size_ += static_cast<std::uint32_t>(n);
    }

    friend bool
    operator==(const Payload &a, const Payload &b) noexcept
    {
        return a.size_ == b.size_ &&
               (a.size_ == 0 ||
                std::memcmp(a.data_, b.data_, a.size_) == 0);
    }

    friend bool
    operator==(const Payload &a, const std::vector<std::uint8_t> &b) noexcept
    {
        return a.size_ == b.size() &&
               (a.size_ == 0 ||
                std::memcmp(a.data_, b.data(), a.size_) == 0);
    }

    friend bool
    operator==(const std::vector<std::uint8_t> &a, const Payload &b) noexcept
    {
        return b == a;
    }

  private:
    void
    assignBytes(const std::uint8_t *src, std::size_t n)
    {
        if (n > cap_)
            regrow(n, 0);
        if (n)
            std::memmove(data_, src, n); // allows self-assign slices
        size_ = static_cast<std::uint32_t>(n);
    }

    /** Switch to a pool block of >= @p need bytes, preserving the
     *  first @p keep bytes. The request is rounded up to the pool's
     *  size class so the stated capacity is honestly allocated and
     *  repeated small growth re-uses the same class. */
    void
    regrow(std::size_t need, std::size_t keep)
    {
        const std::size_t newCap = roundCap(need);
        auto *nbuf = static_cast<std::uint8_t *>(
            sim::Pool::instance().allocate(newCap));
        if (keep)
            std::memcpy(nbuf, data_, keep);
        if (data_)
            sim::Pool::instance().deallocate(data_);
        data_ = nbuf;
        cap_ = static_cast<std::uint32_t>(newCap);
    }

    /** Pool size classes: 2^k and 1.5*2^k, floor 32; exact beyond the
     *  largest class (the pool passes those through). */
    static std::size_t
    roundCap(std::size_t n)
    {
        if (n <= 32)
            return 32;
        if (n > sim::Pool::kMaxBlockSize)
            return n;
        const unsigned p = std::bit_width(n - 1) - 1;
        const std::size_t half = std::size_t(3) << (p - 1);
        return n > half ? std::size_t(1) << (p + 1) : half;
    }

    void
    release() noexcept
    {
        if (data_) {
            sim::Pool::instance().deallocate(data_);
            data_ = nullptr;
        }
        size_ = 0;
        cap_ = 0;
    }

    std::uint8_t *data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
};

} // namespace lynx::net

#endif // LYNX_NET_PAYLOAD_HH
