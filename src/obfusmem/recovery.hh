/**
 * @file
 * Link-recovery configuration and control-plane key schedule.
 *
 * The paper treats any drop/inject/replay as a detected attack that
 * permanently kills the channel (Sec. 3.5). For a production link
 * that also has to survive *benign* faults, the endpoints add three
 * recovery tiers on top of the fail-stop core:
 *
 *   1. bounded retry: the processor side keeps every in-flight
 *      request replayable and retransmits (at fresh counters) after a
 *      timeout, with exponential backoff up to a retry cap;
 *   2. counter resync: a receiver whose header fails to decrypt
 *      trial-decrypts a small window of future counter positions and
 *      jumps forward on a verified hit, burning the skipped pads;
 *   3. re-key: when retries exhaust, the endpoints run a fresh DH
 *      exchange (src/crypto/dh.*) inside ordinary-looking frames and
 *      restart the channel counters from zero under the new epoch
 *      key. If re-key itself fails repeatedly, the channel is
 *      quarantined and escalated through stats/incidents.
 *
 * All recovery traffic is built from the same fixed-shape frames as
 * normal traffic, so an external snooper (and the TraceAuditor)
 * cannot tell recovery from load. With recovery disabled the
 * endpoints behave exactly like the fail-stop original, bit for bit.
 */

#ifndef OBFUSMEM_OBFUSMEM_RECOVERY_HH
#define OBFUSMEM_OBFUSMEM_RECOVERY_HH

#include <cstdint>

#include "crypto/aes128.hh"
#include "sim/types.hh"
#include "util/secret.hh"

namespace obfusmem {

/** Configuration of the link-recovery subsystem. */
struct RecoveryParams
{
    /** Master switch; off reproduces the fail-stop paper behavior. */
    bool enabled = true;
    /** Base retransmit timeout; doubles per attempt (backoff). */
    Tick retryTimeout = 50000 * tickPerNs;
    /** Retransmissions per request before escalating to re-key. */
    unsigned retryMax = 4;
    /** Groups of forward counter positions a resync scan considers. */
    unsigned resyncWindowGroups = 16;
    /** Re-key attempts before the channel is quarantined. */
    unsigned rekeyMaxAttempts = 3;
};

/**
 * Nonce offset of the control-plane CTR streams. Data streams use
 * nonces 2c and 2c+1; the control streams sit far away at
 * 0x10000 + 2c (processor to memory) and 0x10000 + 2c + 1 so control
 * pads can never collide with data pads under the same key.
 */
constexpr uint64_t controlNonceBase = 0x10000;

/**
 * Derive the control-plane key from a channel session key. Handshake
 * frames must stay decryptable while the data-plane key is being
 * replaced, so the control key evolves separately: it is a one-way
 * mix of the *boot* session key and never changes per epoch.
 */
OBF_SECRET crypto::Aes128::Key
controlKeyFor(OBF_SECRET const crypto::Aes128::Key &session);

/**
 * Derive the data-plane key of a re-key epoch from the DH-agreed
 * secret key, the epoch number and the channel id.
 */
OBF_SECRET crypto::Aes128::Key
epochSessionKey(OBF_SECRET const crypto::Aes128::Key &dh_key,
                uint32_t epoch, unsigned channel);

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_RECOVERY_HH
