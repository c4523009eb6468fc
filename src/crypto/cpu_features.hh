/**
 * @file
 * Runtime CPU feature probes for the crypto fast paths.
 *
 * Compile-time support (the binary carries AES-NI code at all) and
 * runtime support (this machine's CPUID advertises the instructions)
 * are separate questions: a binary built with the AES-NI translation
 * unit may land on a CPU without the extension, and the dispatch in
 * Aes128 must then fall back to the T-table path instead of faulting
 * on the first aesenc. The same split applies to the VAES/AVX-512
 * pad-generation lanes.
 */

#ifndef OBFUSMEM_CRYPTO_CPU_FEATURES_HH
#define OBFUSMEM_CRYPTO_CPU_FEATURES_HH

#include <string>

namespace obfusmem {
namespace crypto {

/**
 * True when the running CPU advertises the AES instruction set
 * (CPUID leaf 1, ECX bit 25 on x86). Always false on non-x86 hosts.
 * The probe runs once; the latched answer is stable across threads.
 */
bool cpuHasAesni();

/**
 * True when the CPU advertises AVX2 *and* the OS saves the YMM state
 * (OSXSAVE + XCR0). Reported in cpuFeatureSummary().
 */
bool cpuHasAvx2();

/**
 * True when the CPU advertises AVX-512F and the OS saves the ZMM and
 * opmask state. Reported in cpuFeatureSummary().
 */
bool cpuHasAvx512f();

/**
 * True when the CPU can run the 512-bit VAES pad generator: VAES,
 * AVX-512 F/BW/VL, and ZMM/opmask state enabled in XCR0. Implies
 * nothing about AES-NI; the dispatch checks both.
 */
bool cpuHasVaes512();

/**
 * Comma-separated summary of the probed flags ("aesni,avx2,vaes512"
 * or any subset; "none" when empty). Emitted into benchmark JSONL
 * host-metadata rows so perf baselines are comparable across machines.
 */
std::string cpuFeatureSummary();

} // namespace crypto
} // namespace obfusmem

#endif // OBFUSMEM_CRYPTO_CPU_FEATURES_HH
