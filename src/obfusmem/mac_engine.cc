/**
 * @file
 * MacEngine implementation.
 */

#include "obfusmem/mac_engine.hh"

#include "crypto/bytes.hh"

namespace obfusmem {

namespace {

/** The request-type byte r of the MAC preimage H(r | a | c). */
uint8_t
macType(const WireHeader &hdr)
{
    return static_cast<uint8_t>(hdr.cmd == MemCmd::Write);
}

} // namespace

crypto::Md5Digest
MacEngine::compute(const WireHeader &hdr, uint64_t counter) const
{
    return crypto::md5Rac(macType(hdr), hdr.addr, counter);
}

bool
MacEngine::verify(const WireHeader &hdr, uint64_t counter,
                  const crypto::Md5Digest &mac) const
{
    // Tag comparison must not leak the matching prefix length.
    return crypto::ctEqual(compute(hdr, counter), mac);
}

} // namespace obfusmem
