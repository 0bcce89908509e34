#include "net/network.h"

#include <algorithm>
#include <barrier>
#include <deque>
#include <limits>
#include <thread>
#include <utility>

namespace dcqcn {

namespace {
// Stable per-link loss-RNG seed: a pure function of (network seed, endpoint
// ids), so loss draws are identical for every shard count.
uint64_t LinkLossSeed(uint64_t net_seed, int a, int b) {
  return MixEventKey(net_seed) ^
         ((static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
          static_cast<uint32_t>(b));
}
}  // namespace

Network::Network(uint64_t seed, const ShardPlan& plan)
    : seed_(seed), rng_(seed), plan_(plan) {
  DCQCN_CHECK(plan_.ok);
  DCQCN_CHECK(plan_.num_shards >= 1);
  quantum_ = std::numeric_limits<Time>::max();
  for (int s = 0; s < plan_.num_shards; ++s) {
    shards_.emplace_back();
    shards_.back().eq.EnableCanonicalKeys(&root_ctx_);
  }
  eq_.EnableCanonicalKeys(&root_ctx_);
}

SharedBufferSwitch* Network::AddSwitch(int num_ports,
                                       const SwitchConfig& cfg) {
  const int id = next_node_id_++;
  EventQueue* eq = &eq_;
  Rng* rng = &rng_;
  QueuePool* pool = &pool_;
  telemetry::EventTracer* tracer = tracer_.get();
  if (sharded()) {
    DCQCN_CHECK(static_cast<size_t>(id) < plan_.shard_of_node.size());
    NetShard& sh = shards_[static_cast<size_t>(plan_.shard_of(id))];
    eq = &sh.eq;
    pool = &sh.pool;
    tracer = sh.tracer.get();
    switch_rngs_.emplace_back(
        MixEventKey(seed_ + MixEventKey(static_cast<uint64_t>(id))));
    rng = &switch_rngs_.back();
  }
  auto sw = std::make_unique<SharedBufferSwitch>(eq, rng, id, num_ports, cfg,
                                                 pool);
  SharedBufferSwitch* raw = sw.get();
  raw->SetTracer(tracer);
  switches_.push_back(std::move(sw));
  nodes_.push_back(raw);
  nic_by_id_.push_back(nullptr);
  switch_by_id_.push_back(raw);
  adj_.emplace_back();
  return raw;
}

RdmaNic* Network::AddHost(const NicConfig& cfg) {
  const int id = next_node_id_++;
  std::unique_ptr<RdmaNic> nic;
  if (sharded()) {
    DCQCN_CHECK(static_cast<size_t>(id) < plan_.shard_of_node.size());
    const auto sidx = static_cast<size_t>(plan_.shard_of(id));
    NetShard& sh = shards_[sidx];
    // Host-path device closures run on the coordinator (they call back into
    // the shared workload host); the NIC's own events stay shard-local.
    nic = std::make_unique<RdmaNic>(&sh.eq, id, cfg, &sh.pool,
                                    /*host_eq=*/&eq_);
    nic->SetTracer(sh.tracer.get());
    // Spool completions for canonical barrier replay (AddCompletionHandler).
    nic->AddCompletionCallback([this, sidx](const FlowRecord& rec) {
      shards_[sidx].completions.push_back(rec);
    });
  } else {
    nic = std::make_unique<RdmaNic>(&eq_, id, cfg, &pool_);
    nic->SetTracer(tracer_.get());
  }
  RdmaNic* raw = nic.get();
  nics_.push_back(std::move(nic));
  nodes_.push_back(raw);
  nic_by_id_.push_back(raw);
  switch_by_id_.push_back(nullptr);
  adj_.emplace_back();
  return raw;
}

RdmaNic* Network::host(int node_id) const {
  if (node_id < 0 || static_cast<size_t>(node_id) >= nic_by_id_.size()) {
    return nullptr;
  }
  return nic_by_id_[static_cast<size_t>(node_id)];
}

SharedBufferSwitch* Network::FindSwitch(int node_id) const {
  if (node_id < 0 || static_cast<size_t>(node_id) >= switch_by_id_.size()) {
    return nullptr;
  }
  return switch_by_id_[static_cast<size_t>(node_id)];
}

Link* Network::FindLink(int node_a, int node_b) const {
  for (const auto& l : links_) {
    const int a = l->node_a()->id();
    const int b = l->node_b()->id();
    if ((a == node_a && b == node_b) || (a == node_b && b == node_a)) {
      return l.get();
    }
  }
  return nullptr;
}

Link* Network::Connect(Node* a, int port_a, Node* b, int port_b, Rate rate,
                       Time propagation) {
  if (!sharded()) {
    auto link = std::make_unique<Link>(&eq_, a, port_a, b, port_b, rate,
                                       propagation, &pool_);
    Link* raw = link.get();
    raw->SetTracer(tracer_.get());
    raw->set_index(static_cast<int32_t>(links_.size()));
    links_.push_back(std::move(link));
    adj_[static_cast<size_t>(a->id())].push_back(Adjacency{b, port_a});
    adj_[static_cast<size_t>(b->id())].push_back(Adjacency{a, port_b});
    return raw;
  }
  // Conservative lookahead: a zero-latency link would let a frame cross a
  // shard boundary inside the window that produced it.
  DCQCN_CHECK(propagation > 0);
  // Adaptive per-cut window width: a link whose endpoints share a partition
  // unit (ShardPlan::unit_of_node) can never cross a shard at any shard
  // count, so it does not bound the window. Host<->ToR links are the big
  // winner — a short host wire no longer drags every window down with it.
  // Units are shard-count-invariant, so the window schedule (and byte
  // identity across shard counts) is preserved. Plans without unit info
  // fall back to the legacy global minimum.
  const int32_t ua = plan_.unit_of(a->id());
  const int32_t ub = plan_.unit_of(b->id());
  if (ua < 0 || ub < 0 || ua != ub) {
    quantum_ = std::min(quantum_, propagation);
  }
  const auto sa = static_cast<size_t>(plan_.shard_of(a->id()));
  const auto sb = static_cast<size_t>(plan_.shard_of(b->id()));
  auto link = std::make_unique<Link>(&eq_, a, port_a, b, port_b, rate,
                                     propagation, nullptr);
  Link* raw = link.get();
  ShardChannel* fc = nullptr;
  ShardChannel* rc = nullptr;
  if (sa != sb) {
    channels_.push_back(std::make_unique<ShardChannel>());
    fc = channels_.back().get();
    fc->link = raw;
    fc->forward = true;
    channels_.push_back(std::make_unique<ShardChannel>());
    rc = channels_.back().get();
    rc->link = raw;
    rc->forward = false;
  }
  raw->BindShardEngines(&shards_[sa].eq, &shards_[sb].eq, &shards_[sa].pool,
                        &shards_[sb].pool, fc, rc,
                        LinkLossSeed(seed_, a->id(), b->id()));
  raw->SetDirectionTracers(shards_[sa].tracer.get(), shards_[sb].tracer.get());
  raw->set_index(static_cast<int32_t>(links_.size()));
  links_.push_back(std::move(link));
  adj_[static_cast<size_t>(a->id())].push_back(Adjacency{b, port_a});
  adj_[static_cast<size_t>(b->id())].push_back(Adjacency{a, port_b});
  return raw;
}

void Network::BuildRoutes() {
  constexpr int kInf = std::numeric_limits<int>::max();
  // BFS from each host; each switch keeps every port whose peer is one hop
  // closer to the host — the equal-cost set ECMP hashes over.
  for (const auto& nic : nics_) {
    std::vector<int> dist(nodes_.size(), kInf);
    std::deque<Node*> frontier;
    dist[static_cast<size_t>(nic->id())] = 0;
    frontier.push_back(nic.get());
    while (!frontier.empty()) {
      Node* cur = frontier.front();
      frontier.pop_front();
      const int d = dist[static_cast<size_t>(cur->id())];
      for (const Adjacency& a : adj_[static_cast<size_t>(cur->id())]) {
        auto& pd = dist[static_cast<size_t>(a.peer->id())];
        if (pd == kInf) {
          pd = d + 1;
          frontier.push_back(a.peer);
        }
      }
    }
    for (const auto& sw : switches_) {
      const int d = dist[static_cast<size_t>(sw->id())];
      if (d == kInf) continue;  // unreachable
      std::vector<int> ports;
      for (const Adjacency& a : adj_[static_cast<size_t>(sw->id())]) {
        if (dist[static_cast<size_t>(a.peer->id())] == d - 1) {
          ports.push_back(a.local_port);
        }
      }
      if (!ports.empty()) sw->SetRoute(nic->id(), std::move(ports));
    }
  }
}

SenderQp* Network::StartFlow(FlowSpec spec) {
  if (spec.flow_id < 0) spec.flow_id = NextFlowId();
  next_flow_id_ = std::max(next_flow_id_, spec.flow_id + 1);
  RdmaNic* src = host(spec.src_host);
  DCQCN_CHECK(src != nullptr);
  DCQCN_CHECK(host(spec.dst_host) != nullptr);
  SenderQp* qp = src->AddFlow(spec);
  if (flow_observer_) flow_observer_(qp);
  return qp;
}

void Network::FlowPathLinks(const FlowSpec& spec,
                            std::vector<Link*>* path) const {
  path->clear();
  const uint64_t key = FlowEcmpKey(spec.flow_id, spec.ecmp_salt);
  const Node* cur = nodes_[static_cast<size_t>(spec.src_host)];
  Link* first = cur->link(0);  // host uplink is always port 0
  path->push_back(first);
  Node* nxt = first->Peer(cur);
  int hops = 0;
  while (nxt->id() != spec.dst_host) {
    DCQCN_CHECK(++hops < 64);  // routing loop guard
    SharedBufferSwitch* sw = FindSwitch(nxt->id());
    DCQCN_CHECK(sw != nullptr);
    Link* l = sw->link(sw->EcmpSelect(key, spec.dst_host));
    path->push_back(l);
    nxt = l->Peer(sw);
  }
}

void Network::ReleaseFlow(const FlowSpec& spec) {
  pending_release_.push_back(spec);
  if (release_armed_) return;
  release_armed_ = true;
  eq_.ScheduleIn(0, [this] { DrainReleases(); });
}

void Network::DrainReleases() {
  release_armed_ = false;
  for (const FlowSpec& s : pending_release_) {
    host(s.src_host)->RemoveFlow(s.flow_id);
    host(s.dst_host)->RemoveFlow(s.flow_id);
    free_flow_ids_.push_back(s.flow_id);
  }
  pending_release_.clear();
}

void Network::AddCompletionHandler(std::function<void(const FlowRecord&)> cb) {
  if (sharded()) {
    completion_handlers_.push_back(std::move(cb));
    return;
  }
  // Default mode: inline per-NIC registration, preserving the exact
  // callback timing workload hosts had when they registered themselves.
  for (const auto& nic : nics_) nic->AddCompletionCallback(cb);
}

// ---------- sharded window loop ----------

Time Network::NextWindowEnd(Time w, Time deadline) const {
  DCQCN_CHECK(deadline >= w);
  return quantum_ >= deadline - w ? deadline : w + quantum_;
}

void Network::RunShardWindow(NetShard& sh, Time end) {
  sh.eq.DebugBindToCurrentThread();
  sh.executed += sh.eq.RunUntil(end);
  sh.eq.DebugUnbind();
}

void Network::DrainWindow() {
  for (const auto& ch : channels_) {
    if (!ch->msgs.empty()) ch->link->InjectChannel(*ch);
  }
  completion_scratch_.clear();
  for (NetShard& sh : shards_) {
    completion_scratch_.insert(completion_scratch_.end(),
                               sh.completions.begin(), sh.completions.end());
    sh.completions.clear();
  }
  if (completion_scratch_.empty()) return;
  std::sort(completion_scratch_.begin(), completion_scratch_.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              if (a.finish_time != b.finish_time) {
                return a.finish_time < b.finish_time;
              }
              return a.spec.flow_id < b.spec.flow_id;
            });
  for (const FlowRecord& rec : completion_scratch_) {
    for (const auto& handler : completion_handlers_) handler(rec);
  }
}

uint64_t Network::RunWindows(Time deadline) {
  const size_t S = shards_.size();
  uint64_t executed = 0;
  Time w = eq_.Now();
  if (S == 1) {
    // Canonical engine, no threads: the shards=1 determinism baseline.
    while (w < deadline) {
      const Time e = NextWindowEnd(w, deadline);
      executed += eq_.RunUntil(e);
      RunShardWindow(shards_[0], e);
      DrainWindow();
      w = e;
    }
  } else {
    std::barrier bar(static_cast<std::ptrdiff_t>(S));
    stop_ = false;
    std::vector<std::thread> workers;
    workers.reserve(S - 1);
    for (size_t s = 1; s < S; ++s) {
      workers.emplace_back([this, s, &bar] {
        for (;;) {
          bar.arrive_and_wait();  // round released (or stop)
          if (stop_) return;
          RunShardWindow(shards_[s], window_end_);
          bar.arrive_and_wait();  // round complete
        }
      });
    }
    while (w < deadline) {
      const Time e = NextWindowEnd(w, deadline);
      // Coordinator first: its callbacks (pattern launches, faults, probes)
      // may schedule into shard queues, which still sit at the window start.
      executed += eq_.RunUntil(e);
      window_end_ = e;
      bar.arrive_and_wait();  // release the round to the workers
      RunShardWindow(shards_[0], e);
      bar.arrive_and_wait();  // every shard quiescent
      DrainWindow();
      w = e;
    }
    stop_ = true;
    bar.arrive_and_wait();
    for (std::thread& t : workers) t.join();
  }
  if (eq_.Now() < deadline) executed += eq_.RunUntil(deadline);
  for (NetShard& sh : shards_) {
    executed += sh.executed;
    sh.executed = 0;
  }
  return executed;
}

uint64_t Network::Run(Time deadline) {
  if (!sharded()) return eq_.RunUntil(deadline);
  return RunWindows(deadline);
}

int64_t Network::TotalPauseFramesSent() const {
  int64_t n = 0;
  for (const auto& sw : switches_) n += sw->counters().pause_frames_sent;
  return n;
}

int64_t Network::TotalDrops() const {
  int64_t n = 0;
  for (const auto& sw : switches_) n += sw->counters().dropped_packets;
  return n;
}

Time Network::TotalPausedTime() const {
  Time t = 0;
  for (const auto& sw : switches_) t += sw->PausedTimeTotalAll();
  return t;
}

int64_t Network::TotalCnpsSent() const {
  int64_t n = 0;
  for (const auto& nic : nics_) n += nic->counters().cnps_sent;
  return n;
}

int64_t Network::TotalNaks() const {
  int64_t n = 0;
  for (const auto& nic : nics_) n += nic->counters().naks_sent;
  return n;
}

int64_t Network::TotalOutOfOrderPackets() const {
  int64_t n = 0;
  for (const auto& nic : nics_) n += nic->counters().out_of_order_packets;
  return n;
}

telemetry::EventTracer* Network::ShardTracerOf(int node_id) const {
  return shards_[static_cast<size_t>(plan_.shard_of(node_id))].tracer.get();
}

telemetry::EventTracer* Network::EnableTracing(size_t capacity) {
  if (!tracer_ || tracer_->capacity() != capacity) {
    tracer_ = std::make_unique<telemetry::EventTracer>(capacity);
  }
  if (!sharded()) {
    for (const auto& sw : switches_) sw->SetTracer(tracer_.get());
    for (const auto& nic : nics_) nic->SetTracer(tracer_.get());
    for (const auto& l : links_) l->SetTracer(tracer_.get());
    return tracer_.get();
  }
  for (NetShard& sh : shards_) {
    if (!sh.tracer || sh.tracer->capacity() != capacity) {
      sh.tracer = std::make_unique<telemetry::EventTracer>(capacity);
    }
  }
  for (const auto& sw : switches_) sw->SetTracer(ShardTracerOf(sw->id()));
  for (const auto& nic : nics_) nic->SetTracer(ShardTracerOf(nic->id()));
  for (const auto& l : links_) {
    l->SetDirectionTracers(ShardTracerOf(l->node_a()->id()),
                           ShardTracerOf(l->node_b()->id()));
  }
  return tracer_.get();
}

std::string Network::ExportChromeTrace() const {
  if (!tracer_) return std::string();
  std::map<int, std::string> names;
  for (const auto& sw : switches_) {
    names[sw->id()] = "switch " + std::to_string(sw->id());
  }
  for (const auto& nic : nics_) {
    names[nic->id()] = "host " + std::to_string(nic->id());
  }
  if (!sharded()) return tracer_->ToChromeJson(names);
  // Merge coordinator + per-shard rings. One node's records live in exactly
  // one ring (its shard's), already in execution order; a stable sort by
  // (t, node) over the concatenation — coordinator first — therefore yields
  // the same sequence for every shard count, as long as no ring overflowed.
  std::vector<telemetry::TraceRecord> merged = tracer_->Snapshot();
  for (const NetShard& sh : shards_) {
    if (!sh.tracer) continue;
    const auto snap = sh.tracer->Snapshot();
    merged.insert(merged.end(), snap.begin(), snap.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const telemetry::TraceRecord& a,
                      const telemetry::TraceRecord& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.node < b.node;
                   });
  telemetry::EventTracer out(std::max<size_t>(merged.size(), 1));
  for (const telemetry::TraceRecord& r : merged) {
    out.Record(r.t, r.type, r.node, r.port, r.priority, r.flow, r.value,
               r.aux);
  }
  return out.ToChromeJson(names);
}

}  // namespace dcqcn
