#pragma once
// Messages of the Tracker signature (Figure 2) and client traffic.
//
// Every tracker-to-tracker message carries the sending cluster (the `cid`
// of Figure 2's handlers) and the target it concerns; find-phase messages
// additionally carry the find's identity and, for findAck, the advertised
// pointer x.

#include <ostream>

#include "common/ids.hpp"
#include "obs/op.hpp"
#include "stats/counters.hpp"

namespace vs::vsa {

/// Wire message kinds; mirrors Figure 2's message set.
using MsgType = stats::MsgKind;

/// What a §VII heartbeat probe (MsgType::kHeartbeat) asks its receiver to
/// confirm; the ack echoes the claim with hb_ok = confirmed. kAnchor and
/// kClientQuery are one-way pulses and carry no ack.
enum class HbClaim : std::uint8_t {
  kNone = 0,
  kChild,          // "my c is you — do you point back with p?"
  kParent,         // "my p is you — do you point back with c?"
  kAdvertUp,       // "you should hold me in nbrptup"
  kAdvertDown,     // "you should hold me in nbrptdown"
  kSecondaryUp,    // "I hold you in nbrptup — still vertically attached?"
  kSecondaryDown,  // "I hold you in nbrptdown — still laterally attached?"
  kAnchor,         // root-anchored liveness pulse, forwarded down c-links
  kClientQuery,    // level-0 presence probe broadcast to region clients
};

struct Message {
  // Fields are ordered to pack the struct into 32 bytes, so a C-gcast
  // client broadcast closure ([this, region, m]) fits EventAction's
  // 48-byte inline buffer.
  MsgType type{MsgType::kGrow};
  /// Heartbeat payload (kHeartbeat/kHeartbeatAck only, kNone otherwise).
  HbClaim hb_claim{HbClaim::kNone};
  /// kHeartbeatAck: the probed claim held at the receiver.
  bool hb_ok = false;
  /// Figure 2's `cid`: the cluster the message is "from" (for client-sent
  /// grow/shrink at level 0 this is the level-0 cluster itself).
  ClusterId from_cluster{};
  /// Which mobile object this concerns (TargetId{0} for single-object).
  TargetId target{TargetId{0}};
  /// findAck payload x: a cluster on, or holding a secondary pointer to,
  /// the tracking path. Heartbeat acks reuse it for the responder's own
  /// pointer of interest (e.g. its p on a kParent ack).
  ClusterId ack_pointer{};
  /// Identity of the find operation (find/findQuery/findAck/found only).
  FindId find_id{};
  /// Logical operation this message is charged to (0 = background). Set
  /// by the sender or stamped by CGcast's ambient op; replies propagate
  /// the incoming message's op so cascades stay attributed end to end.
  obs::OpId op = obs::kBackgroundOp;

  friend std::ostream& operator<<(std::ostream& os, const Message& m);
};
static_assert(sizeof(Message) <= 32, "keep Message packed (see above)");

/// Inputs a client receives from the GPS/evader model (§III-A).
enum class ClientInput {
  kMove,  // evader entered the client's region
  kLeft,  // evader left the client's region
};

}  // namespace vs::vsa
