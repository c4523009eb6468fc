/**
 * @file
 * MacEngine implementation.
 */

#include "obfusmem/mac_engine.hh"

#include <vector>

#include "crypto/bytes.hh"
#include "crypto/md5_lanes.hh"

namespace obfusmem {

namespace {

/** The request-type byte r of the MAC preimage H(r | a | c). */
uint8_t
macType(const WireHeader &hdr)
{
    return hdr.cmd == MemCmd::Write ? 1 : 0;
}

} // namespace

crypto::Md5Digest
MacEngine::compute(const WireHeader &hdr, uint64_t counter) const
{
    return crypto::md5Rac(macType(hdr), hdr.addr, counter);
}

void
MacEngine::computeBatch(const WireHeader *hdrs,
                        const uint64_t *counters,
                        crypto::Md5Digest *out, size_t n) const
{
    // Pack the preimages contiguously and hand the whole batch to the
    // MD5 lanes: eight or sixteen tags per wide compression, and the
    // sub-group tail (all of a lone 2-message group) through the
    // one-block kernel. The win from the lanes comes from the
    // BurstBatch pipeline flushing many groups at once.
    using crypto::md5RacLen;
    constexpr size_t maxStack = 64;
    if (n <= maxStack) {
        uint8_t msgs[maxStack * md5RacLen];
        for (size_t i = 0; i < n; ++i)
            crypto::md5PackRac(macType(hdrs[i]), hdrs[i].addr,
                               counters[i], msgs + i * md5RacLen);
        crypto::md5ShortBatch(msgs, md5RacLen, md5RacLen, n, out);
        return;
    }
    std::vector<uint8_t> msgs(n * md5RacLen);
    for (size_t i = 0; i < n; ++i)
        crypto::md5PackRac(macType(hdrs[i]), hdrs[i].addr, counters[i],
                           msgs.data() + i * md5RacLen);
    crypto::md5ShortBatch(msgs.data(), md5RacLen, md5RacLen, n, out);
}

bool
MacEngine::verify(const WireHeader &hdr, uint64_t counter,
                  const crypto::Md5Digest &mac) const
{
    // Tag comparison must not leak the matching prefix length.
    return crypto::ctEqual(compute(hdr, counter), mac);
}

} // namespace obfusmem
