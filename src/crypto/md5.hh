/**
 * @file
 * MD5 message digest (RFC 1321).
 *
 * ObfusMem uses MD5 as its lightweight MAC function for communication
 * authentication (paper Sec. 3.5): the attacker cannot mount chosen-text
 * attacks against the MAC because every MAC input includes a fresh
 * counter value and the message itself is encrypted. The paper's
 * synthesized 64-stage pipelined engine figures are captured in
 * Md5EngineParams for the timing model.
 *
 * Two implementations live here: the incremental Md5 context, which
 * hashes any message and is the oracle, and md5Rac, the one-block
 * kernel behind every bus MAC. Tests pin the kernel to the context.
 */

#ifndef OBFUSMEM_CRYPTO_MD5_HH
#define OBFUSMEM_CRYPTO_MD5_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/secret.hh"

namespace obfusmem {
namespace crypto {

/** Synthesis figures for the pipelined MD5 engine (paper Sec. 4). */
struct Md5EngineParams
{
    /** Pipeline stages of the public-domain implementation used. */
    static constexpr unsigned pipelineStages = 64;
    /** Power in milliwatts. */
    static constexpr double powerMw = 12.5;
    /** Area in mm^2. */
    static constexpr double areaMm2 = 0.214;
};

/** 128-bit MD5 digest. */
using Md5Digest = std::array<uint8_t, 16>;

/**
 * Bytes in the bus-MAC preimage H(r | a | c) (paper Sec. 3.5): the
 * request-type byte r, then the address a and the counter c as
 * little-endian 64-bit words.
 */
constexpr size_t md5RacLen = 17;

/**
 * MD5 of one r|a|c preimage, equal to Md5::digest of its 17 bytes.
 * The preimage always pads into exactly one 64-byte block, so this
 * is one straight-line compression from the standard IV: the message
 * words come straight from the three fields, the padding words are
 * constants, and no Md5 context is built.
 */
OBF_SECRET Md5Digest md5Rac(uint8_t r, uint64_t a, uint64_t c);

/**
 * Incremental MD5 context.
 */
class Md5
{
  public:
    Md5() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb bytes. */
    void update(const uint8_t *data, size_t len);

    /** Finalize and return the digest; context must be reset after. */
    Md5Digest finalize();

    /** One-shot digest of a buffer. */
    static Md5Digest digest(const uint8_t *data, size_t len);

    /** One-shot digest of a string. */
    static Md5Digest digest(const std::string &s);

  private:
    void processBlock(const uint8_t *block);

    /**
     * Hash state and pending input. Secret whenever the absorbed
     * message is (HMAC keys and transcripts, counter-mode session
     * material); tainting the context keeps key-derived digests
     * tracked through the MAC and KDF paths.
     */
    OBF_SECRET std::array<uint32_t, 4> state;
    uint64_t totalLen;
    OBF_SECRET std::array<uint8_t, 64> buffer;
    size_t bufferLen;
};

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_MD5_HH
