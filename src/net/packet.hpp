// Packet model.
//
// Sequence numbers are packet-granularity (one segment == one sequence
// unit), the convention ns-2 uses and the one under which the paper's
// results were produced. Payload size still matters for link serialization
// and queue byte accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/inline_vec.hpp"

namespace tcppr::net {

using NodeId = int;
using FlowId = int;
using SeqNo = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FlowId kInvalidFlow = -1;

// A packet's uid is its originating node's id shifted over that node's
// origination count, which takes the low kUidCountBits bits.
inline constexpr unsigned kUidCountBits = 40;

// kTcpClose is the FIN analogue the flow lifecycle layer (src/workload)
// sends after a transfer is fully acknowledged: it tells the receiver-side
// demux that the flow departed so its state can be reclaimed. Transports
// that never close (the paper's long-lived FTP flows) never see one.
enum class PacketType : std::uint8_t { kTcpData, kTcpAck, kTcpClose, kCbr };

// Half-open SACK block [begin, end) in packet-granularity sequence space.
struct SackBlock {
  SeqNo begin = 0;
  SeqNo end = 0;
  friend constexpr bool operator==(const SackBlock&, const SackBlock&) = default;
};

// RFC 2018 caps a SACK option at 3 blocks (the RFC 2883 D-SACK block
// rides in its own field), so an ACK's blocks fit a fixed inline array.
inline constexpr std::size_t kMaxSackBlocks = 3;
using SackVec = util::InlineVec<SackBlock, kMaxSackBlocks>;
// A source route: the nodes after the originating one, ending at dst.
// Packets point into a table their routing policy builds once from its
// fixed path set, so a route is never copied per packet.
using RouteVec = std::vector<NodeId>;

// TCP header fields relevant at packet granularity. A real header is 40
// bytes; options (SACK blocks, timestamps) ride along for the variants that
// need them and are ignored by the ones that don't.
struct TcpHeader {
  FlowId flow = kInvalidFlow;
  bool is_retransmission = false;
  SeqNo seq = 0;         // data: segment number
  SeqNo ack = 0;         // ack: next expected segment (cumulative)
  // Transmission serial of the data segment (distinguishes original from
  // retransmission; stands in for the Eifel timestamp / retransmit count).
  std::uint32_t tx_serial = 0;
  // Echoed tx_serial on ACKs (timestamp-echo analogue used by Eifel).
  std::uint32_t echo_serial = 0;
  // Sender timestamp echoed by the receiver (seconds); Eifel option.
  double ts_value = 0.0;
  double ts_echo = 0.0;
  SackVec sack;                    // up to 3 blocks (RFC 2018), inline
  std::optional<SackBlock> dsack;  // first block duplicate (RFC 2883)
};

struct Packet {
  std::uint64_t uid = 0;  // unique per transmission, set on origination
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  PacketType type = PacketType::kTcpData;
  TcpHeader tcp;

  // Source route. When set, forwarding follows it instead of per-node
  // routing tables — this is how per-packet multi-path routing is
  // realized. The table it points into belongs to the routing policy,
  // which is built with the topology and outlives the run.
  const RouteVec* source_route = nullptr;
  std::uint32_t route_pos = 0;
  int hops = 0;

  bool is_ack() const { return type == PacketType::kTcpAck; }
};

// Packets live in PacketPool slots and are copied only into and out of a
// cut link's mailbox; keep them one memcpy wide.
static_assert(std::is_trivially_copyable_v<Packet>);
static_assert(sizeof(Packet) <= 176);

}  // namespace tcppr::net
