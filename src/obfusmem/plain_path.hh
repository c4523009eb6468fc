/**
 * @file
 * The unprotected (and encryption-only) channel path: commands and
 * addresses travel in the clear on the command pins, data blocks on
 * the data bus. This is the baseline every protected configuration is
 * normalized against, and it is also what makes the attacker probe's
 * attacks work: the snoop sees true addresses and request types.
 *
 * Like a real memory controller, the path buffers writes and gives
 * reads priority for the channel; buffered writes drain when the
 * channel is idle or the buffer passes its high watermark.
 */

#ifndef OBFUSMEM_OBFUSMEM_PLAIN_PATH_HH
#define OBFUSMEM_OBFUSMEM_PLAIN_PATH_HH

#include <deque>
#include <vector>

#include "mem/address_map.hh"
#include "mem/channel_bus.hh"
#include "mem/packet.hh"
#include "mem/packet_pool.hh"
#include "mem/pcm_controller.hh"
#include "sim/sim_object.hh"

namespace obfusmem {

/**
 * Routes requests to the per-channel buses and PCM controllers with
 * no obfuscation.
 */
class PlainPath : public SimObject, public MemSink
{
  public:
    struct Params
    {
        unsigned writeQueueHighWatermark = 16;
        unsigned writeQueueLowWatermark = 4;
    };

    PlainPath(const std::string &name, EventQueue &eq,
              statistics::Group *parent, const AddressMap &map,
              const std::vector<ChannelBus *> &buses,
              const std::vector<PcmController *> &controllers,
              PacketPool &pool, const Params &params);

    void access(MemPacket pkt, PacketCallback cb) override;

  private:
    struct QueuedWrite
    {
        MemPacket pkt;
        PacketCallback cb;
    };

    struct ChannelState
    {
        unsigned outstandingReads = 0;
        std::deque<QueuedWrite> writeQueue;
        bool drainingWrites = false;
    };

    /** Put a read on the wire and route the reply back. */
    void sendRead(unsigned channel, MemPacket pkt, PacketCallback cb);

    /** Put a write on the wire. */
    void sendWrite(unsigned channel, MemPacket pkt, PacketCallback cb);

    void maybeDrainWrites(unsigned channel);

    const AddressMap &addrMap;
    std::vector<ChannelBus *> buses;
    std::vector<PcmController *> controllers;
    PacketPool &pool;
    Params params;
    std::vector<ChannelState> channelState;

    statistics::Scalar reads, writes;
    statistics::Scalar forwardedFromWriteQueue;
};

} // namespace obfusmem

#endif // OBFUSMEM_OBFUSMEM_PLAIN_PATH_HH
