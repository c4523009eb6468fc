/**
 * @file
 * Control-plane key schedule of the link-recovery subsystem.
 */

#include "obfusmem/recovery.hh"

#include <algorithm>

#include "crypto/bytes.hh"
#include "crypto/md5.hh"

namespace obfusmem {

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
