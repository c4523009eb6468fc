/**
 * @file
 * Counter-ahead pad prefetching (paper Observation 4 / Sec. 3.2).
 *
 * Counter-mode pads are pure functions of (key, counter), and both
 * endpoints know every future counter value, so the pads a channel
 * will consume next can be generated before the messages that need
 * them exist. The hardware engine exploits this with its 24-stage
 * pipeline; this host-side analogue keeps a ring of pre-generated
 * pad groups per counter stream, refilled in large batches from
 * zero-delay "idle tick" events so the batched AES path (the AES-NI
 * or VAES lanes) is fed full pipelines instead of 5-6 block dribbles
 * in the middle of the protocol.
 *
 * Correctness is by construction: a prefetched pad is byte-identical
 * to one generated on demand, so wire traffic cannot change with the
 * prefetch depth - only host wall time does. Counter skew (the
 * tamper/desync model) invalidates the ring so a desynchronized
 * endpoint decrypts - and fails - exactly as it would without
 * prefetching.
 */

#ifndef OBFUSMEM_SECURE_PAD_PREFETCHER_HH
#define OBFUSMEM_SECURE_PAD_PREFETCHER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "util/secret.hh"
#include "util/stats.hh"

namespace obfusmem {

/**
 * Prefetch depth in pad groups per counter stream. The wire is
 * identical at any depth; tests set 0 (fully on demand) to show it.
 */
constexpr unsigned defaultPadPrefetchDepth = 8;

/**
 * Counters for one controller's prefetchers (tx and rx streams share
 * a struct). Registered into the owning SimObject's stats group.
 */
struct PadPrefetchStats
{
    statistics::Scalar hits, misses, refills, invalidations;
    statistics::Scalar padsPrefetched;

    void regStats(statistics::Group &g);
};

/**
 * A ring of pre-generated pad groups for one counter stream.
 *
 * A "group" is the fixed run of consecutive counter values one
 * protocol unit consumes: six for a request group, five for a read
 * reply. The ring always holds whole groups, contiguous in counter
 * space, starting at the next counter the consumer will ask for.
 */
class PadPrefetcher
{
  public:
    PadPrefetcher() = default;

    /**
     * @param cipher The stream's AES-CTR keystream (must outlive us).
     * @param pads_per_group Counter values per protocol unit.
     * @param depth_groups Ring capacity in groups; 0 disables.
     * @param stats Owner-registered counters (may be shared).
     */
    void configure(const crypto::AesCtr &cipher, size_t pads_per_group,
                   size_t depth_groups, PadPrefetchStats *stats);

    bool enabled() const { return depth != 0; }

    /**
     * Produce the group of pads at `counter` into `out`
     * (pads_per_group blocks). Serves from the ring when `counter` is
     * the expected head; any other counter (first use, or a consumer
     * whose counter was skewed underneath us) is a miss: the group is
     * generated directly and the ring repositions after it.
     */
    void take(uint64_t counter, OBF_SECRET crypto::Block128 *out);

    /**
     * True when a refill is worth scheduling, marking one pending so
     * back-to-back groups in the same tick coalesce into one batch.
     * The caller owns the event plumbing (a zero-delay event that
     * touches no simulated state).
     */
    bool shouldScheduleRefill();

    /** Top the ring back up to `depth` groups ahead, in batch. */
    void refill();

    /**
     * Drop every cached group. Called when the stream's counter is
     * skewed (drop/replay modelling): the cached pads were generated
     * for counters the consumer will no longer ask for in sequence,
     * and desync detection must see exactly the on-demand behavior.
     */
    void invalidate();

  private:
    const crypto::AesCtr *cipher = nullptr;
    size_t groupSize = 0;
    size_t depth = 0;
    /** depth * groupSize pads; group g lives at [g*groupSize, ...). */
    OBF_SECRET std::vector<crypto::Block128> ring;
    /** Ring slot (in groups) of the oldest cached group. */
    size_t head = 0;
    /** Number of valid groups starting at `head`. */
    size_t cached = 0;
    /** Counter of the group at `head` (valid when cached > 0). */
    uint64_t headCounter = 0;
    bool refillPending = false;
    PadPrefetchStats *stats = nullptr;
};

/**
 * A direct-mapped memo of memory-encryption pads, keyed by the base
 * IV (page id, offset, major/minor counter - see MemoryEncryptionIv).
 * The four sub-block pads are a pure function of that IV, so between
 * counter bumps (i.e. between writes to a block) repeated reads reuse
 * the AES work. Like the prefetcher, bit-identical by construction.
 */
class IvPadMemo
{
  public:
    /** @param entries Table size, rounded up to a power of two; 0
     *         disables the memo (every lookup misses). */
    void configure(size_t entries);

    void regStats(statistics::Group &g);

    /** Copy the memoized pads for `iv` into `out[4]` on a hit. */
    bool lookup(const crypto::Block128 &iv,
                OBF_SECRET crypto::Block128 out[4]);

    /** Record freshly computed pads for `iv`. */
    void insert(const crypto::Block128 &iv,
                OBF_SECRET const crypto::Block128 pads[4]);

  private:
    struct Entry
    {
        crypto::Block128 iv{};
        std::array<crypto::Block128, 4> pads{};
        bool valid = false;
    };

    size_t indexOf(const crypto::Block128 &iv) const;

    std::vector<Entry> table;
    size_t mask = 0;
    statistics::Scalar hitCount, missCount;
};

} // namespace obfusmem

#endif // OBFUSMEM_SECURE_PAD_PREFETCHER_HH
