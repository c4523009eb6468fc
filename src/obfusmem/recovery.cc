/**
 * @file
 * Recovery knobs and control-plane key schedule.
 */

#include "obfusmem/recovery.hh"

#include <algorithm>
#include <limits>

#include "crypto/bytes.hh"
#include "crypto/md5.hh"
#include "util/env.hh"

namespace obfusmem {

RecoveryParams
RecoveryParams::fromEnv()
{
    RecoveryParams p;
    // Each knob is bounded by what its field can hold: a value above
    // the bound warns and keeps the default instead of wrapping.
    constexpr uint64_t unsignedMax = std::numeric_limits<unsigned>::max();
    p.enabled = env::u64("OBFUSMEM_RECOVERY", 1) != 0;
    p.retryTimeout = env::u64("OBFUSMEM_RETRY_TIMEOUT_NS", 50000,
                              UINT64_MAX / tickPerNs)
                     * tickPerNs;
    p.retryMax = static_cast<unsigned>(
        env::u64("OBFUSMEM_RETRY_MAX", p.retryMax, unsignedMax));
    // The resync scans run their group index through the window
    // inclusive, so the window stays one below the index's range.
    p.resyncWindowGroups = static_cast<unsigned>(env::u64(
        "OBFUSMEM_RESYNC_WINDOW", p.resyncWindowGroups, unsignedMax - 1));
    p.rekeyMaxAttempts = static_cast<unsigned>(
        env::u64("OBFUSMEM_REKEY_MAX", p.rekeyMaxAttempts, unsignedMax));
    return p;
}

const RecoveryParams &
defaultRecoveryParams()
{
    static const RecoveryParams latched = RecoveryParams::fromEnv();
    return latched;
}

crypto::Aes128::Key
controlKeyFor(const crypto::Aes128::Key &session)
{
    crypto::Md5 md5;
    md5.update(session.data(), session.size());
    static const uint8_t label[] = {'c', 't', 'l'};
    md5.update(label, sizeof(label));
    crypto::Md5Digest d = md5.finalize();
    crypto::Aes128::Key key;
    std::copy(d.begin(), d.end(), key.begin());
    // The digest *is* the control key; scrub the stack copy.
    crypto::secureZero(d);
    return key;
}

crypto::Aes128::Key
epochSessionKey(OBF_SECRET const crypto::Aes128::Key &dh_key,
                uint32_t epoch, unsigned channel)
{
    crypto::Md5 md5;
    md5.update(dh_key.data(), dh_key.size());
    uint8_t ctx[16];
    crypto::storeLe64(ctx, epoch);
    crypto::storeLe64(ctx + 8, channel);
    md5.update(ctx, sizeof(ctx));
    crypto::Md5Digest d = md5.finalize();
    crypto::Aes128::Key key;
    std::copy(d.begin(), d.end(), key.begin());
    // The digest *is* the epoch data-plane key; scrub the stack copy.
    crypto::secureZero(d);
    return key;
}

} // namespace obfusmem
