#include "vsa/client.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vs::vsa {

namespace {

std::size_t idx(ClientId id) { return static_cast<std::size_t>(id.value()); }

}  // namespace

ClientPopulation::ClientPopulation(CGcast& cgcast,
                                   const hier::ClusterHierarchy& hierarchy,
                                   VsaDirectory* directory)
    : cgcast_(&cgcast),
      hier_(&hierarchy),
      directory_(directory),
      first_in_region_(hierarchy.tiling().num_regions(), ClientId::invalid()) {}

void ClientPopulation::populate_uniform(int per_region) {
  VS_REQUIRE(per_region >= 1, "need at least one client per region");
  const std::size_t regions = first_in_region_.size();
  clients_.reserve(clients_.size() +
                   regions * static_cast<std::size_t>(per_region));
  next_in_region_.reserve(clients_.capacity());
  for (std::size_t u = 0; u < regions; ++u) {
    for (int i = 0; i < per_region; ++i) {
      add_client(RegionId{static_cast<RegionId::rep_type>(u)});
    }
  }
}

ClientId& ClientPopulation::first_link(RegionId region) {
  VS_REQUIRE(region.valid() && static_cast<std::size_t>(region.value()) <
                                   first_in_region_.size(),
             "region " << region << " out of range");
  return first_in_region_[static_cast<std::size_t>(region.value())];
}

ClientId& ClientPopulation::end_link(RegionId region) {
  ClientId* link = &first_link(region);
  while (link->valid()) link = &next_in_region_[idx(*link)];
  return *link;
}

ClientId ClientPopulation::add_client(RegionId region) {
  const ClientId id{static_cast<ClientId::rep_type>(clients_.size())};
  end_link(region) = id;
  clients_.push_back(Client{id, region, true});
  next_in_region_.push_back(ClientId::invalid());
  notify_presence(region);
  return id;
}

const Client& ClientPopulation::client(ClientId id) const {
  VS_REQUIRE(id.valid() && static_cast<std::size_t>(id.value()) < clients_.size(),
             "client " << id << " out of range");
  return clients_[idx(id)];
}

void ClientPopulation::kill_client(ClientId id) {
  Client& c = clients_[idx(id)];
  if (!c.alive) return;
  c.alive = false;
  forget(id);  // restart is from the initial state (§II-C.1)
  notify_presence(c.region);
}

void ClientPopulation::restart_client(ClientId id) {
  Client& c = clients_[idx(id)];
  if (c.alive) return;
  c.alive = true;
  forget(id);
  notify_presence(c.region);
}

void ClientPopulation::move_client(ClientId id, RegionId to) {
  Client& c = clients_[idx(id)];
  const RegionId from = c.region;
  if (from == to) return;
  (void)first_link(to);  // range-checks `to` before anything moves
  ClientId* link = &first_link(from);
  while (*link != id) link = &next_in_region_[idx(*link)];
  *link = next_in_region_[idx(id)];
  next_in_region_[idx(id)] = ClientId::invalid();
  end_link(to) = id;  // joins the end of its new region's list
  c.region = to;
  forget(id);  // GPSupdate for the new region carries no evader
  notify_presence(from);
  notify_presence(to);
}

ClientPopulation::RegionClients ClientPopulation::clients_in(
    RegionId region) const {
  VS_REQUIRE(region.valid() && static_cast<std::size_t>(region.value()) <
                                   first_in_region_.size(),
             "region " << region << " out of range");
  return {&next_in_region_,
          first_in_region_[static_cast<std::size_t>(region.value())]};
}

std::size_t ClientPopulation::alive_clients_in(RegionId region) const {
  std::size_t count = 0;
  for (const ClientId id : clients_in(region)) {
    if (clients_[idx(id)].alive) ++count;
  }
  return count;
}

bool ClientPopulation::believes(ClientId id, TargetId target) const {
  return std::binary_search(beliefs_.begin(), beliefs_.end(),
                            Belief{target, id});
}

void ClientPopulation::believe(ClientId id, TargetId target) {
  const Belief b{target, id};
  const auto it = std::lower_bound(beliefs_.begin(), beliefs_.end(), b);
  if (it == beliefs_.end() || *it != b) beliefs_.insert(it, b);
}

void ClientPopulation::disbelieve(ClientId id, TargetId target) {
  const Belief b{target, id};
  const auto it = std::lower_bound(beliefs_.begin(), beliefs_.end(), b);
  if (it != beliefs_.end() && *it == b) beliefs_.erase(it);
}

void ClientPopulation::forget(ClientId id) {
  std::erase_if(beliefs_, [id](const Belief& b) { return b.client == id; });
}

void ClientPopulation::notify_presence(RegionId region) {
  if (directory_ != nullptr) {
    directory_->set_clients_present(region, alive_clients_in(region) > 0);
  }
}

void ClientPopulation::on_evader_move(TargetId target, RegionId from,
                                      RegionId to) {
  if (from.valid()) {
    bool any_alive = false;
    for (const ClientId id : clients_in(from)) {
      if (!clients_[idx(id)].alive) continue;
      any_alive = true;
      disbelieve(id, target);
      // `left` input → shrink to the level-0 cluster (§IV-A).
      Message m;
      m.type = MsgType::kShrink;
      m.from_cluster = hier_->cluster_of(from, 0);
      m.target = target;
      cgcast_->send_from_client(from, m);
    }
    VS_REQUIRE(any_alive,
               "tracking spec requires an alive client where the evader "
               "leaves (region "
                   << from << ")");
  }
  if (to.valid()) {
    bool any_alive = false;
    for (const ClientId id : clients_in(to)) {
      if (!clients_[idx(id)].alive) continue;
      any_alive = true;
      believe(id, target);
      // `move` input → grow to the level-0 cluster (§IV-A).
      Message m;
      m.type = MsgType::kGrow;
      m.from_cluster = hier_->cluster_of(to, 0);
      m.target = target;
      cgcast_->send_from_client(to, m);
    }
    VS_REQUIRE(any_alive,
               "tracking spec requires an alive client where the evader "
               "arrives (region "
                   << to << ")");
  }
}

void ClientPopulation::inject_find(RegionId region, TargetId target,
                                   FindId find_id) {
  VS_REQUIRE(alive_clients_in(region) > 0,
             "find injected at region " << region << " with no alive client");
  Message m;
  m.type = MsgType::kFind;
  m.from_cluster = hier_->cluster_of(region, 0);
  m.target = target;
  m.find_id = find_id;
  cgcast_->send_from_client(region, m);
}

void ClientPopulation::on_broadcast(RegionId region, const Message& m) {
  if (m.type == MsgType::kHeartbeat &&
      m.hb_claim == HbClaim::kClientQuery) {
    auto& flags = queried_[m.target];
    if (flags.empty()) flags.assign(first_in_region_.size(), 0);
    flags[static_cast<std::size_t>(region.value())] = 1;
    for (const ClientId id : clients_in(region)) {
      if (clients_[idx(id)].alive &&
          believes(id, m.target)) {
        return;  // marker confirmed, suppress all responses
      }
    }
    for (const ClientId id : clients_in(region)) {
      if (!clients_[idx(id)].alive) continue;
      // The re-detection shrink: the `left` input's message that the
      // marker evidently never processed.
      Message reply;
      reply.type = MsgType::kShrink;
      reply.from_cluster = hier_->cluster_of(region, 0);
      reply.target = m.target;
      reply.op = m.op;  // charged to the querying heartbeat/repair op
      cgcast_->send_from_client(region, reply);
    }
    return;
  }
  if (m.type != MsgType::kFound) return;
  for (const ClientId id : clients_in(region)) {
    if (!clients_[idx(id)].alive) continue;
    if (believes(id, m.target)) {
      if (found_output_) found_output_(m.find_id, m.target, region, id);
    }
  }
}

int ClientPopulation::refresh_detection(TargetId target, obs::OpId op) {
  auto& flags = queried_[target];
  if (flags.empty()) flags.assign(first_in_region_.size(), 0);
  // Only a region holding a believer can send; visit those in region
  // order, as a scan of every region would.
  std::vector<RegionId> regions;
  const auto lo = std::lower_bound(beliefs_.begin(), beliefs_.end(),
                                   Belief{target, ClientId::invalid()});
  for (auto it = lo; it != beliefs_.end() && it->target == target; ++it) {
    regions.push_back(clients_[idx(it->client)].region);
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  int sent = 0;
  for (const RegionId region : regions) {
    if (flags[static_cast<std::size_t>(region.value())] != 0) continue;
    for (const ClientId id : clients_in(region)) {
      if (!clients_[idx(id)].alive) continue;
      if (!believes(id, target)) continue;
      // The detection grow again — the silent level-0 cluster lost it.
      Message m;
      m.type = MsgType::kGrow;
      m.from_cluster = hier_->cluster_of(region, 0);
      m.target = target;
      m.op = op;
      cgcast_->send_from_client(region, m);
      ++sent;
    }
  }
  std::fill(flags.begin(), flags.end(), 0);
  return sent;
}

}  // namespace vs::vsa
