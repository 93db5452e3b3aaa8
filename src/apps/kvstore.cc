#include "kvstore.hh"

#include <algorithm>

namespace lynx::apps {

namespace {

void
setU16(std::span<std::uint8_t> buf, std::size_t off, std::uint16_t v)
{
    buf[off] = static_cast<std::uint8_t>(v);
    buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
}

void
setU32(std::span<std::uint8_t> buf, std::size_t off, std::uint32_t v)
{
    buf[off] = static_cast<std::uint8_t>(v);
    buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
    buf[off + 2] = static_cast<std::uint8_t>(v >> 16);
    buf[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint16_t
getU16(std::span<const std::uint8_t> buf, std::size_t off)
{
    return static_cast<std::uint16_t>(buf[off] | (buf[off + 1] << 8));
}

std::uint32_t
getU32(std::span<const std::uint8_t> buf, std::size_t off)
{
    return static_cast<std::uint32_t>(buf[off]) |
           (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
           (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
           (static_cast<std::uint32_t>(buf[off + 3]) << 24);
}

/** Request layout: op (1 B), key length (u16), key, value length
 *  (u32), value. The buffer is sized once and filled in place. */
std::vector<std::uint8_t>
encodeRequest(KvOp op, const std::string &key,
              std::span<const std::uint8_t> value)
{
    std::vector<std::uint8_t> buf(3 + key.size() + 4 + value.size());
    buf[0] = static_cast<std::uint8_t>(op);
    setU16(buf, 1, static_cast<std::uint16_t>(key.size()));
    std::copy(key.begin(), key.end(), buf.begin() + 3);
    setU32(buf, 3 + key.size(), static_cast<std::uint32_t>(value.size()));
    std::copy(value.begin(), value.end(), buf.begin() + 3 + key.size() + 4);
    return buf;
}

} // namespace

std::vector<std::uint8_t>
kvEncodeGet(const std::string &key)
{
    return encodeRequest(KvOp::Get, key, {});
}

std::vector<std::uint8_t>
kvEncodeSet(const std::string &key, std::span<const std::uint8_t> value)
{
    return encodeRequest(KvOp::Set, key, value);
}

std::optional<KvRequest>
kvDecodeRequest(std::span<const std::uint8_t> buf)
{
    if (buf.size() < 7)
        return std::nullopt;
    KvRequest req;
    if (buf[0] > 1)
        return std::nullopt;
    req.op = static_cast<KvOp>(buf[0]);
    std::uint16_t keyLen = getU16(buf, 1);
    if (buf.size() < 3u + keyLen + 4u)
        return std::nullopt;
    req.key.assign(buf.begin() + 3, buf.begin() + 3 + keyLen);
    std::uint32_t valLen = getU32(buf, 3u + keyLen);
    if (buf.size() < 3u + keyLen + 4u + valLen)
        return std::nullopt;
    req.value.assign(buf.begin() + 3 + keyLen + 4,
                     buf.begin() + 3 + keyLen + 4 + valLen);
    return req;
}

std::vector<std::uint8_t>
kvEncodeResponse(KvStatus status, std::span<const std::uint8_t> value)
{
    std::vector<std::uint8_t> buf(5 + value.size());
    buf[0] = static_cast<std::uint8_t>(status);
    setU32(buf, 1, static_cast<std::uint32_t>(value.size()));
    std::copy(value.begin(), value.end(), buf.begin() + 5);
    return buf;
}

KvResponse
kvDecodeResponse(std::span<const std::uint8_t> buf)
{
    KvResponse resp;
    if (buf.size() < 5)
        return resp;
    resp.status = static_cast<KvStatus>(buf[0]);
    std::uint32_t n = getU32(buf, 1);
    if (buf.size() < 5u + n) {
        resp.status = KvStatus::Malformed;
        return resp;
    }
    resp.value.assign(buf.begin() + 5, buf.begin() + 5 + n);
    return resp;
}

std::vector<std::uint8_t>
kvApply(KvStore &store, const KvRequest &req)
{
    if (req.op == KvOp::Set) {
        store.set(req.key, req.value);
        return kvEncodeResponse(KvStatus::Ok, {});
    }
    auto v = store.get(req.key);
    if (!v)
        return kvEncodeResponse(KvStatus::Miss, {});
    return kvEncodeResponse(KvStatus::Ok, *v);
}

} // namespace lynx::apps
