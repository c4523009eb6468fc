/**
 * @file
 * The ObfusMem wire format: what actually travels on the exposed
 * memory channel.
 *
 * Every message carries a 128-bit encrypted header (command, address,
 * tag, sanity magic), optionally a 64-byte encrypted data payload, and
 * optionally a 128-bit MAC. Counter values are never transmitted: both
 * endpoints keep synchronized counters, which is also what makes
 * replay/drop attacks detectable (paper Sec. 3.5).
 *
 * Counter discipline (paper Fig. 3): each request group consumes six
 * counter values - pad 0 for the first message's header, pad 1 for the
 * second (paired dummy) message's header, pads 2-5 for the 64-byte
 * payload carried by whichever of the two messages has data. Each
 * read reply consumes five values (header + 4 data pads).
 */

#ifndef OBFUSMEM_OBFUSMEM_WIRE_FORMAT_HH
#define OBFUSMEM_OBFUSMEM_WIRE_FORMAT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "crypto/md5.hh"
#include "mem/channel_bus.hh"
#include "mem/packet.hh"
#include "util/secret.hh"

namespace obfusmem {

/** Plaintext contents of a message header. */
struct WireHeader
{
    MemCmd cmd = MemCmd::Read;
    uint64_t addr = 0;
    /** Matches replies to outstanding requests; encrypted on wire. */
    uint16_t tag = 0;
    /**
     * Dummy-request marker. It travels *inside* the encrypted header,
     * so it is invisible on the wire but lets the (trusted) memory
     * side drop or specially handle dummies under the non-fixed
     * dummy-address policies.
     */
    bool dummy = false;

    /** Serialize into a 128-bit block (before encryption). */
    crypto::Block128 pack() const;

    /**
     * Parse a decrypted header block.
     * @return header, or nullopt if the sanity magic is wrong (pad
     *         misalignment / tampering / counter desync).
     */
    static std::optional<WireHeader> unpack(const crypto::Block128 &b);
};

/** A message as it appears on the channel. */
struct WireMessage
{
    crypto::Block128 cipherHeader{};
    bool hasData = false;
    DataBlock cipherData{};
    bool hasMac = false;
    crypto::Md5Digest mac{};

    /**
     * Data-bus bytes this message occupies given the phy's header and
     * MAC wire widths (see ObfusMemParams).
     */
    uint32_t
    wireBytes(uint32_t header_bytes, uint32_t mac_bytes) const
    {
        uint32_t bytes = header_bytes;
        if (hasData)
            bytes += static_cast<uint32_t>(cipherData.size());
        if (hasMac)
            bytes += mac_bytes;
        return bytes;
    }

    /** Low 64 bits of the ciphertext header (what a snooper logs). */
    uint64_t snoopAddr() const
    {
        return crypto::loadLe64(cipherHeader.data());
    }
};

/** Counter values consumed by one request group. */
constexpr uint64_t countersPerRequestGroup = 6;
/** Counter values consumed by one read reply. */
constexpr uint64_t countersPerReply = 5;

/** Encrypt a header with the pad for the given counter value. */
crypto::Block128 encryptHeader(const crypto::AesCtr &ctr,
                               uint64_t counter, const WireHeader &hdr);

/** Decrypt and parse a header. */
std::optional<WireHeader> decryptHeader(const crypto::AesCtr &ctr,
                                        uint64_t counter,
                                        const crypto::Block128 &cipher);

/** Encrypt/decrypt a 64-byte payload with pads ctr..ctr+3. */
DataBlock cryptPayload(const crypto::AesCtr &ctr, uint64_t counter,
                       const DataBlock &in);

// --- Batched-pad variants (the hot path) ----------------------------
//
// The endpoints generate a whole group's (or reply's) pads with one
// AesCtr::genPads call and then feed the precomputed pads to these
// helpers, so the AES work is batched instead of being redone pad by
// pad mid-protocol.

/** All pads of one request group, generated in a single batch. */
struct GroupPads
{
    std::array<crypto::Block128, countersPerRequestGroup> pad;
};

/** All pads of one read reply, generated in a single batch. */
struct ReplyPads
{
    std::array<crypto::Block128, countersPerReply> pad;

    const crypto::Block128 &header() const { return pad[0]; }
    const crypto::Block128 *payload() const { return &pad[1]; }
};

/** Batch-generate the six pads of the request group at `counter`. */
GroupPads genGroupPads(const crypto::AesCtr &ctr, uint64_t counter);

/** Batch-generate the five pads of the read reply at `counter`. */
ReplyPads genReplyPads(const crypto::AesCtr &ctr, uint64_t counter);

/** Encrypt a header with a precomputed pad. */
crypto::Block128 encryptHeaderWithPad(const crypto::Block128 &pad,
                                      const WireHeader &hdr);

/** Decrypt and parse a header with a precomputed pad. */
std::optional<WireHeader>
decryptHeaderWithPad(const crypto::Block128 &pad,
                     const crypto::Block128 &cipher);

/** Encrypt/decrypt a 64-byte payload with four precomputed pads. */
DataBlock cryptPayloadWithPads(const crypto::Block128 pads[4],
                               const DataBlock &in);

// --- Fixed-shape message builders -----------------------------------
//
// Every message on an obfuscated channel has exactly one of two
// shapes: header-only, or header + 64-byte payload. All senders --
// the normal protocol AND the recovery/re-key control plane -- must
// construct frames through these builders so a frame's wire shape
// cannot depend on what it carries (enforced by the wire-shape repo
// lint rule). A built frame is ciphertext bound for the bus, exactly
// what a bus snooper records, so it is public.

/** Build a header-only frame (the "read" half of a group). */
OBF_PUBLIC WireMessage makeHeaderMessage(const crypto::Block128 &hdr_pad,
                                         const WireHeader &hdr);

/** Build a header + full-payload frame (the "write" half). */
OBF_PUBLIC WireMessage
makeDataMessage(const crypto::Block128 &hdr_pad,
                const crypto::Block128 payload_pads[4],
                const WireHeader &hdr, const DataBlock &payload);

/** Attach an authentication tag to a built frame. */
void attachMac(WireMessage &msg, const crypto::Md5Digest &digest);

/**
 * Flip one deterministic bit of the ciphertext header (fault model
 * for an in-flight corruption; `entropy` selects the bit).
 */
void corruptHeaderBit(WireMessage &msg, uint64_t entropy);

/**
 * Hand a frame that crossed the bus to `receive` as the far end
 * latches it: with one header bit flipped if the bus corrupted it,
 * and twice if the bus duplicated it. Both endpoints deliver through
 * here; `receive` picks the test/tooling intercept or the production
 * endpoint.
 */
template <typename Receive>
void
deliverFrame(WireMessage &&msg, const BusFault &fault, Receive &&receive)
{
    if (fault.corrupted)
        corruptHeaderBit(msg, fault.entropy);
    if (fault.duplicated)
        receive(WireMessage(msg));
    receive(std::move(msg));
}

// --- Re-key handshake payload codec ---------------------------------
//
// DH public values ride inside ordinary-looking 64-byte payloads so
// handshake frames are wire-identical to data frames. Each chunk
// carries up to 54 value bytes (64 minus the 10-byte chunk header)
// plus its position in the sequence.

/** One chunk of a handshake value, on its way through a payload. */
struct HandshakeChunk
{
    /** Re-key round this chunk belongs to. */
    uint32_t epoch = 0;
    /** Chunk index within the value (0-based). */
    uint8_t chunk = 0;
    /** Total chunks in the value. */
    uint8_t total = 1;
    /** Value bytes carried by this chunk. */
    std::array<uint8_t, 54> data{};
    uint16_t len = 0;
};

/** Maximum value bytes per handshake chunk. */
constexpr size_t handshakeChunkBytes = 54;

/** Most chunks one handshake value may span. */
constexpr unsigned maxHandshakeChunks = 8;

/** Serialize a handshake chunk into a payload block. */
DataBlock packHandshakeChunk(const HandshakeChunk &c);

/**
 * Parse a payload as a handshake chunk.
 * @return chunk, or nullopt if the block is not a plausible chunk.
 */
std::optional<HandshakeChunk> unpackHandshakeChunk(const DataBlock &b);

/**
 * Split a handshake value into the payloads of its chunks, in chunk
 * order (one empty chunk for an empty value). The value is a DH
 * public value, so it is public.
 */
std::vector<DataBlock>
packHandshake(uint32_t epoch, OBF_PUBLIC const std::vector<uint8_t> &value);

/**
 * Collects the chunks of one handshake value, in any order. A chunk
 * of another epoch or chunk count restarts the collection; a chunk
 * that claims more than maxHandshakeChunks chunks is ignored.
 */
class HandshakeAssembly
{
  public:
    /** The whole value once every chunk of one epoch is in. */
    std::optional<std::vector<uint8_t>> add(const HandshakeChunk &c);

  private:
    uint32_t epoch = 0;
    uint8_t total = 0;
    uint32_t mask = 0;
    std::array<HandshakeChunk, maxHandshakeChunks> chunks{};
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_WIRE_FORMAT_HH
