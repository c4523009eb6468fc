/**
 * @file
 * Bus-message authentication (paper Sec. 3.5).
 *
 * The MAC is MD5 over (request type | address | counter) - the
 * *plaintext* components plus the never-reused counter, so the
 * receiver can recompute it from its own synchronized counter and any
 * tamper, drop, injection or replay yields a mismatch.
 *
 * Two composition modes are modelled:
 *  - encrypt-and-MAC: the MAC is computed over plaintext components,
 *    so it overlaps with request encryption (and can even start early
 *    via LLC eviction / stride prediction); only a small residual
 *    latency remains on the critical path.
 *  - encrypt-then-MAC: the MAC covers the ciphertext, so the full MD5
 *    pipeline latency serializes after encryption. Provided as the
 *    paper's rejected alternative for the ablation benchmark.
 */

#ifndef OBFUSMEM_OBFUSMEM_MAC_ENGINE_HH
#define OBFUSMEM_OBFUSMEM_MAC_ENGINE_HH

#include "crypto/md5.hh"
#include "obfusmem/wire_format.hh"
#include "sim/types.hh"
#include "util/assert.hh"
#include "util/secret.hh"

namespace obfusmem {

/** MAC composition mode. */
enum class MacMode { EncryptAndMac, EncryptThenMac };

/**
 * Computes and verifies per-message MACs and reports the latency each
 * mode adds to the message path.
 */
class MacEngine
{
  public:
    struct Params
    {
        MacMode mode = MacMode::EncryptAndMac;
        /**
         * Residual critical-path latency of encrypt-and-MAC: mostly
         * hidden by overlap with encryption/prediction.
         */
        Tick overlappedLatency = 2 * tickPerNs;
        /**
         * Full 64-stage MD5 pipeline latency that encrypt-then-MAC
         * serializes behind encryption (64 stages at 4 ns).
         */
        Tick pipelineLatency = 64 * 4 * tickPerNs;
    };

    explicit MacEngine(const Params &params_) : params(params_)
    {
        // Encrypt-and-MAC exists because its residual latency hides
        // under encryption; a config where it costs more than the
        // full pipeline is a misconfiguration, not a mode choice.
        OBF_DCHECK(params.overlappedLatency <= params.pipelineLatency,
                   "overlapped MAC latency exceeds the pipeline");
    }

    /** MAC over (type | address | counter). The tag is secret. */
    OBF_SECRET crypto::Md5Digest compute(const WireHeader &hdr,
                                         uint64_t counter) const;

    /**
     * Verify a received MAC against local plaintext + counter. The
     * boolean outcome is deliberately public (it drives the tamper
     * fail-stop); the comparison inside goes through crypto::ctEqual.
     */
    OBF_PUBLIC bool verify(const WireHeader &hdr, uint64_t counter,
                           OBF_SECRET const crypto::Md5Digest &mac) const;

    /** Latency added on the sender side. */
    Tick senderLatency() const
    {
        return params.mode == MacMode::EncryptAndMac
                   ? params.overlappedLatency
                   : params.pipelineLatency;
    }

    /** Latency added on the receiver side (verification). */
    Tick receiverLatency() const
    {
        // Verification recomputes the MAC from decrypted components;
        // the pipeline is busy either way, but encrypt-and-MAC lets
        // the hash start as soon as the header pad XOR finishes.
        return params.mode == MacMode::EncryptAndMac
                   ? params.overlappedLatency
                   : params.pipelineLatency;
    }

    MacMode mode() const { return params.mode; }

  private:
    Params params;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_MAC_ENGINE_HH
