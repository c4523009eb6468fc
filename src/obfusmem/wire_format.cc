/**
 * @file
 * Wire format implementation.
 */

#include "obfusmem/wire_format.hh"

#include <algorithm>

#include "util/assert.hh"

namespace obfusmem {

namespace {

/** Sanity magic embedded in every header plaintext. */
constexpr uint8_t magic0 = 0x0b;
constexpr uint8_t magic1 = 0xf5;

} // namespace

crypto::Block128
WireHeader::pack() const
{
    crypto::Block128 b{};
    b[0] = cmd == MemCmd::Write ? 1 : 0;
    crypto::storeLe64(b.data() + 1, addr);
    b[9] = static_cast<uint8_t>(tag);
    b[10] = static_cast<uint8_t>(tag >> 8);
    b[11] = magic0;
    b[12] = magic1;
    b[13] = dummy ? 1 : 0;
    return b;
}

std::optional<WireHeader>
WireHeader::unpack(const crypto::Block128 &b)
{
    if (b[11] != magic0 || b[12] != magic1 || b[0] > 1 || b[13] > 1)
        return std::nullopt;
    WireHeader hdr;
    hdr.cmd = b[0] ? MemCmd::Write : MemCmd::Read;
    hdr.addr = crypto::loadLe64(b.data() + 1);
    hdr.tag = static_cast<uint16_t>(b[9])
              | (static_cast<uint16_t>(b[10]) << 8);
    hdr.dummy = b[13] != 0;
    return hdr;
}

crypto::Block128
encryptHeader(const crypto::AesCtr &ctr, uint64_t counter,
              const WireHeader &hdr)
{
    return crypto::xorBlocks(hdr.pack(), ctr.pad(counter));
}

std::optional<WireHeader>
decryptHeader(const crypto::AesCtr &ctr, uint64_t counter,
              const crypto::Block128 &cipher)
{
    return WireHeader::unpack(
        crypto::xorBlocks(cipher, ctr.pad(counter)));
}

DataBlock
cryptPayload(const crypto::AesCtr &ctr, uint64_t counter,
             const DataBlock &in)
{
    DataBlock out = in;
    ctr.applyKeystream(out.data(), out.size(), counter);
    return out;
}

GroupPads
genGroupPads(const crypto::AesCtr &ctr, uint64_t counter)
{
    GroupPads pads;
    ctr.genPads(counter, pads.pad.data(), pads.pad.size());
    return pads;
}

ReplyPads
genReplyPads(const crypto::AesCtr &ctr, uint64_t counter)
{
    ReplyPads pads;
    ctr.genPads(counter, pads.pad.data(), pads.pad.size());
    return pads;
}

crypto::Block128
encryptHeaderWithPad(const crypto::Block128 &pad, const WireHeader &hdr)
{
    return crypto::xorBlocks(hdr.pack(), pad);
}

std::optional<WireHeader>
decryptHeaderWithPad(const crypto::Block128 &pad,
                     const crypto::Block128 &cipher)
{
    return WireHeader::unpack(crypto::xorBlocks(cipher, pad));
}

DataBlock
cryptPayloadWithPads(const crypto::Block128 pads[4], const DataBlock &in)
{
    DataBlock out = in;
    for (unsigned i = 0; i < 4 && 16 * i < out.size(); ++i)
        crypto::xorInto(out.data() + 16 * i, pads[i].data(), 16);
    return out;
}

WireMessage
makeHeaderMessage(const crypto::Block128 &hdr_pad,
                  const WireHeader &hdr)
{
    WireMessage msg;
    msg.cipherHeader = encryptHeaderWithPad(hdr_pad, hdr);
    return msg;
}

WireMessage
makeDataMessage(const crypto::Block128 &hdr_pad,
                const crypto::Block128 payload_pads[4],
                const WireHeader &hdr, const DataBlock &payload)
{
    WireMessage msg;
    msg.cipherHeader = encryptHeaderWithPad(hdr_pad, hdr);
    msg.hasData = true;
    msg.cipherData = cryptPayloadWithPads(payload_pads, payload);
    return msg;
}

void
attachMac(WireMessage &msg, const crypto::Md5Digest &digest)
{
    msg.hasMac = true;
    msg.mac = digest;
}

void
corruptHeaderBit(WireMessage &msg, uint64_t entropy)
{
    size_t bit = static_cast<size_t>(entropy % 128);
    msg.cipherHeader[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

namespace {

/** Sanity magic marking a payload as a handshake chunk. */
constexpr uint8_t chunkMagic0 = 0xd4;
constexpr uint8_t chunkMagic1 = 0x48; // 'H'

} // namespace

DataBlock
packHandshakeChunk(const HandshakeChunk &c)
{
    DataBlock b{};
    b[0] = chunkMagic0;
    b[1] = chunkMagic1;
    b[2] = static_cast<uint8_t>(c.epoch);
    b[3] = static_cast<uint8_t>(c.epoch >> 8);
    b[4] = static_cast<uint8_t>(c.epoch >> 16);
    b[5] = static_cast<uint8_t>(c.epoch >> 24);
    b[6] = c.chunk;
    b[7] = c.total;
    b[8] = static_cast<uint8_t>(c.len);
    b[9] = static_cast<uint8_t>(c.len >> 8);
    std::copy_n(c.data.data(), handshakeChunkBytes, b.data() + 10);
    return b;
}

std::optional<HandshakeChunk>
unpackHandshakeChunk(const DataBlock &b)
{
    if (b[0] != chunkMagic0 || b[1] != chunkMagic1)
        return std::nullopt;
    HandshakeChunk c;
    c.epoch = static_cast<uint32_t>(b[2])
              | (static_cast<uint32_t>(b[3]) << 8)
              | (static_cast<uint32_t>(b[4]) << 16)
              | (static_cast<uint32_t>(b[5]) << 24);
    c.chunk = b[6];
    c.total = b[7];
    c.len = static_cast<uint16_t>(b[8])
            | (static_cast<uint16_t>(b[9]) << 8);
    if (c.total == 0 || c.chunk >= c.total
        || c.len > handshakeChunkBytes)
        return std::nullopt;
    std::copy_n(b.data() + 10, handshakeChunkBytes, c.data.data());
    return c;
}

std::vector<DataBlock>
packHandshake(uint32_t epoch, const std::vector<uint8_t> &value)
{
    const size_t total = std::max<size_t>(
        1, (value.size() + handshakeChunkBytes - 1) / handshakeChunkBytes);
    OBF_ASSERT(total <= maxHandshakeChunks, "handshake value of ",
               value.size(), " bytes needs more than ",
               maxHandshakeChunks, " chunks");
    std::vector<DataBlock> payloads;
    for (size_t i = 0; i < total; ++i) {
        HandshakeChunk c;
        c.epoch = epoch;
        c.chunk = static_cast<uint8_t>(i);
        c.total = static_cast<uint8_t>(total);
        const size_t off = i * handshakeChunkBytes;
        c.len = static_cast<uint16_t>(
            std::min(handshakeChunkBytes, value.size() - off));
        std::copy_n(value.begin() + off, c.len, c.data.begin());
        payloads.push_back(packHandshakeChunk(c));
    }
    return payloads;
}

std::optional<std::vector<uint8_t>>
HandshakeAssembly::add(const HandshakeChunk &c)
{
    if (c.total == 0 || c.total > maxHandshakeChunks
        || c.len > handshakeChunkBytes)
        return std::nullopt;
    if (epoch != c.epoch || total != c.total) {
        epoch = c.epoch;
        total = c.total;
        mask = 0;
    }
    if (c.chunk >= total)
        return std::nullopt;
    chunks[c.chunk] = c;
    mask |= 1u << c.chunk;
    if (mask != (1u << total) - 1)
        return std::nullopt;

    std::vector<uint8_t> value;
    for (unsigned i = 0; i < total; ++i)
        value.insert(value.end(), chunks[i].data.begin(),
                     chunks[i].data.begin() + chunks[i].len);
    return value;
}

} // namespace obfusmem
