#pragma once
// Client automata (paper §II-C.1, §III-A, §IV-A).
//
// Clients are the physical nodes. For tracking they do three things:
//  - on a `move` GPS input (evader entered their region) they send a grow
//    to their region's level-0 cluster; on `left`, a shrink;
//  - on an external `find` input they forward a find to the level-0
//    cluster;
//  - on receiving a `found` broadcast, a client whose last GPS input
//    indicated evader presence performs the found output.
// Clients can fail/restart and move between regions; their presence also
// drives VSA liveness via the VsaDirectory.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/directory.hpp"
#include "vsa/messages.hpp"

namespace vs::vsa {

/// A small set of targets kept as one sorted vector: a client believes at
/// most the few objects in its region, and an empty set allocates nothing.
class TargetSet {
 public:
  [[nodiscard]] bool contains(TargetId t) const {
    return std::binary_search(ids_.begin(), ids_.end(), t);
  }
  void insert(TargetId t) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), t);
    if (it == ids_.end() || *it != t) ids_.insert(it, t);
  }
  void erase(TargetId t) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), t);
    if (it != ids_.end() && *it == t) ids_.erase(it);
  }
  void clear() { ids_.clear(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  std::vector<TargetId> ids_;  // ascending
};

struct Client {
  ClientId id{};
  RegionId region{};
  bool alive = true;
  /// Targets whose last move/left input at this client indicated the
  /// evader is in its region. A `left` erases its target, so the set is
  /// bounded by the live objects, not by every object that passed through.
  TargetSet believes_here;
};

class ClientPopulation {
 public:
  /// `directory` may be null when VSA failures are not modelled.
  ClientPopulation(CGcast& cgcast, const hier::ClusterHierarchy& hierarchy,
                   VsaDirectory* directory);

  /// Populates every region with `per_region` clients.
  void populate_uniform(int per_region);

  ClientId add_client(RegionId region);
  void kill_client(ClientId id);
  void restart_client(ClientId id);
  /// Relocates the client (client mobility; affects VSA liveness only).
  void move_client(ClientId id, RegionId to);

  [[nodiscard]] const Client& client(ClientId id) const;
  [[nodiscard]] std::size_t alive_clients_in(RegionId region) const;
  /// All clients homed at `region`, alive or not (fault injection uses
  /// this to depopulate a region deterministically).
  [[nodiscard]] const std::vector<ClientId>& clients_in(RegionId region) const;

  /// GPS-service hook: the evader for `target` moved from → to. Issues
  /// `left` inputs at `from` and `move` inputs at `to`; clients react with
  /// shrink/grow sends (delay δ via C-gcast). Either region id may be
  /// invalid (initial placement / final disappearance).
  void on_evader_move(TargetId target, RegionId from, RegionId to);

  /// External find input delivered to a client in `region`; it forwards a
  /// find message to its level-0 cluster. Requires an alive client there.
  void inject_find(RegionId region, TargetId target, FindId find_id);

  /// C-gcast client sink: a level-0 broadcast arrived at `region`. Besides
  /// `found` deliveries, this handles the §VII presence query
  /// (kHeartbeat/HbClaim::kClientQuery): a level-0 cluster that carries
  /// the detection marker asks its region's clients to confirm it. If some
  /// alive client still believes the evader is here the marker is correct
  /// and everyone stays silent (clients share the physical broadcast
  /// medium, so response suppression is local knowledge); otherwise every
  /// alive client answers with the re-detection shrink the marker is
  /// missing. Receipt of a query also feeds the refresh_detection bookkeeping.
  void on_broadcast(RegionId region, const Message& m);

  /// Client-side periodic re-detection (§IV-A: GPS inputs are periodic):
  /// believing clients in any region whose level-0 cluster has *not*
  /// queried them since the previous call re-send their detection grow —
  /// the silent cluster has lost its marker (VSA reset). Returns the number
  /// of grow messages sent and consumes the per-region query flags. `op`
  /// charges the re-detection grows to the stabilizer's repair operation.
  int refresh_detection(TargetId target, obs::OpId op = obs::kBackgroundOp);

  /// Invoked when a believing client performs the found output.
  using FoundOutput =
      std::function<void(FindId, TargetId, RegionId, ClientId)>;
  void set_found_output(FoundOutput cb) { found_output_ = std::move(cb); }

 private:
  void notify_presence(RegionId region);
  std::vector<ClientId>& clients_at(RegionId region);

  CGcast* cgcast_;
  const hier::ClusterHierarchy* hier_;
  VsaDirectory* directory_;
  std::vector<Client> clients_;
  std::vector<std::vector<ClientId>> by_region_;
  FoundOutput found_output_;
  /// Per target, per region: did a presence query arrive since the last
  /// refresh_detection scan for that target? Keyed by target so
  /// concurrent stabilizers never consume each other's flags.
  /// (std::uint8_t, not bool: vector<bool> proxies.)
  std::map<TargetId, std::vector<std::uint8_t>> queried_;
};

}  // namespace vs::vsa
