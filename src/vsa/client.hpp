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

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/directory.hpp"
#include "vsa/messages.hpp"

namespace vs::vsa {

struct Client {
  ClientId id{};
  RegionId region{};
  bool alive = true;
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

  /// The clients homed at one region, alive or not, in the order they
  /// joined it: a forward range over the population's per-region links.
  class RegionClients {
   public:
    class iterator {
     public:
      ClientId operator*() const { return at_; }
      iterator& operator++() {
        at_ = (*next_)[static_cast<std::size_t>(at_.value())];
        return *this;
      }
      friend bool operator==(iterator a, iterator b) { return a.at_ == b.at_; }

     private:
      friend class RegionClients;
      iterator(const std::vector<ClientId>* next, ClientId at)
          : next_(next), at_(at) {}
      const std::vector<ClientId>* next_;
      ClientId at_;
    };
    [[nodiscard]] iterator begin() const { return {next_, first_}; }
    [[nodiscard]] iterator end() const {
      return {next_, ClientId::invalid()};
    }

   private:
    friend class ClientPopulation;
    RegionClients(const std::vector<ClientId>* next, ClientId first)
        : next_(next), first_(first) {}
    const std::vector<ClientId>* next_;
    ClientId first_;
  };

  [[nodiscard]] const Client& client(ClientId id) const;
  [[nodiscard]] std::size_t alive_clients_in(RegionId region) const;
  /// All clients homed at `region` (fault injection uses this to
  /// depopulate a region deterministically).
  [[nodiscard]] RegionClients clients_in(RegionId region) const;

  /// Whether client `id`'s last move/left input for `target` said the
  /// evader is in its region (the paper's presence flag).
  [[nodiscard]] bool believes(ClientId id, TargetId target) const;
  /// (client, target) beliefs held. A `left` input, a kill, a restart and
  /// a move each erase theirs, so this is bounded by the live objects
  /// times the clients of their regions, not by history.
  [[nodiscard]] std::size_t num_beliefs() const { return beliefs_.size(); }

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
  struct Belief {
    TargetId target;
    ClientId client;
    friend constexpr auto operator<=>(const Belief&, const Belief&) = default;
  };

  void notify_presence(RegionId region);
  /// The link that names `region`'s first client (range-checked), and
  /// the invalid link at the end of its list, where a joining client goes.
  ClientId& first_link(RegionId region);
  ClientId& end_link(RegionId region);
  void believe(ClientId id, TargetId target);
  void disbelieve(ClientId id, TargetId target);
  void forget(ClientId id);

  CGcast* cgcast_;
  const hier::ClusterHierarchy* hier_;
  VsaDirectory* directory_;
  std::vector<Client> clients_;
  /// One singly linked list per region, in join order: first_in_region_
  /// names a region's first client and next_in_region_ each client's
  /// successor (invalid at the end), so the lists take two flat tables and
  /// no allocation per region.
  std::vector<ClientId> first_in_region_;
  std::vector<ClientId> next_in_region_;
  /// Every (target, client) belief, ascending.
  std::vector<Belief> beliefs_;
  FoundOutput found_output_;
  /// Per target, per region: did a presence query arrive since the last
  /// refresh_detection scan for that target? Keyed by target so
  /// concurrent stabilizers never consume each other's flags.
  /// (std::uint8_t, not bool: vector<bool> proxies.)
  std::map<TargetId, std::vector<std::uint8_t>> queried_;
};

}  // namespace vs::vsa
