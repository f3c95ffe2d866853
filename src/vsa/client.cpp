#include "vsa/client.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vs::vsa {

ClientPopulation::ClientPopulation(CGcast& cgcast,
                                   const hier::ClusterHierarchy& hierarchy,
                                   VsaDirectory* directory)
    : cgcast_(&cgcast),
      hier_(&hierarchy),
      directory_(directory),
      by_region_(hierarchy.tiling().num_regions()) {}

void ClientPopulation::populate_uniform(int per_region) {
  VS_REQUIRE(per_region >= 1, "need at least one client per region");
  for (const RegionId u : hier_->tiling().all_regions()) {
    for (int i = 0; i < per_region; ++i) add_client(u);
  }
}

std::vector<ClientId>& ClientPopulation::clients_at(RegionId region) {
  VS_REQUIRE(region.valid() &&
                 static_cast<std::size_t>(region.value()) < by_region_.size(),
             "region " << region << " out of range");
  return by_region_[static_cast<std::size_t>(region.value())];
}

ClientId ClientPopulation::add_client(RegionId region) {
  const ClientId id{static_cast<ClientId::rep_type>(clients_.size())};
  clients_.push_back(Client{id, region, true, {}});
  clients_at(region).push_back(id);
  notify_presence(region);
  return id;
}

const Client& ClientPopulation::client(ClientId id) const {
  VS_REQUIRE(id.valid() && static_cast<std::size_t>(id.value()) < clients_.size(),
             "client " << id << " out of range");
  return clients_[static_cast<std::size_t>(id.value())];
}

void ClientPopulation::kill_client(ClientId id) {
  Client& c = clients_[static_cast<std::size_t>(id.value())];
  if (!c.alive) return;
  c.alive = false;
  c.believes_here.clear();  // restart is from the initial state (§II-C.1)
  notify_presence(c.region);
}

void ClientPopulation::restart_client(ClientId id) {
  Client& c = clients_[static_cast<std::size_t>(id.value())];
  if (c.alive) return;
  c.alive = true;
  c.believes_here.clear();
  notify_presence(c.region);
}

void ClientPopulation::move_client(ClientId id, RegionId to) {
  Client& c = clients_[static_cast<std::size_t>(id.value())];
  const RegionId from = c.region;
  if (from == to) return;
  auto& vec = clients_at(from);
  vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
  c.region = to;
  c.believes_here.clear();  // GPSupdate for the new region carries no evader
  clients_at(to).push_back(id);
  notify_presence(from);
  notify_presence(to);
}

const std::vector<ClientId>& ClientPopulation::clients_in(
    RegionId region) const {
  VS_REQUIRE(region.valid() &&
                 static_cast<std::size_t>(region.value()) < by_region_.size(),
             "region " << region << " out of range");
  return by_region_[static_cast<std::size_t>(region.value())];
}

std::size_t ClientPopulation::alive_clients_in(RegionId region) const {
  std::size_t count = 0;
  for (const ClientId id :
       by_region_[static_cast<std::size_t>(region.value())]) {
    if (clients_[static_cast<std::size_t>(id.value())].alive) ++count;
  }
  return count;
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
    for (const ClientId id : clients_at(from)) {
      Client& c = clients_[static_cast<std::size_t>(id.value())];
      if (!c.alive) continue;
      any_alive = true;
      c.believes_here.erase(target);
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
    for (const ClientId id : clients_at(to)) {
      Client& c = clients_[static_cast<std::size_t>(id.value())];
      if (!c.alive) continue;
      any_alive = true;
      c.believes_here.insert(target);
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
    if (flags.empty()) flags.assign(by_region_.size(), 0);
    flags[static_cast<std::size_t>(region.value())] = 1;
    bool any_believer = false;
    for (const ClientId id : clients_at(region)) {
      const Client& c = clients_[static_cast<std::size_t>(id.value())];
      if (!c.alive) continue;
      if (c.believes_here.contains(m.target)) {
        any_believer = true;
        break;
      }
    }
    if (any_believer) return;  // marker confirmed, suppress all responses
    for (const ClientId id : clients_at(region)) {
      const Client& c = clients_[static_cast<std::size_t>(id.value())];
      if (!c.alive) continue;
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
  for (const ClientId id : clients_at(region)) {
    Client& c = clients_[static_cast<std::size_t>(id.value())];
    if (!c.alive) continue;
    if (c.believes_here.contains(m.target)) {
      if (found_output_) found_output_(m.find_id, m.target, region, id);
    }
  }
}

int ClientPopulation::refresh_detection(TargetId target, obs::OpId op) {
  int sent = 0;
  auto& flags = queried_[target];
  if (flags.empty()) flags.assign(by_region_.size(), 0);
  for (std::size_t r = 0; r < by_region_.size(); ++r) {
    const bool queried = flags[r] != 0;
    flags[r] = 0;
    if (queried) continue;
    const RegionId region{static_cast<RegionId::rep_type>(r)};
    for (const ClientId id : by_region_[r]) {
      const Client& c = clients_[static_cast<std::size_t>(id.value())];
      if (!c.alive) continue;
      if (!c.believes_here.contains(target)) continue;
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
  return sent;
}

}  // namespace vs::vsa
