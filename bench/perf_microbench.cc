// google-benchmark microbenchmarks for the simulator engine itself: event
// queue throughput, switch forwarding, RP updates, RED decisions, fluid
// integration. These guard the simulator's own performance (millions of
// events per simulated millisecond).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/red_ecn.h"
#include "core/rp.h"
#include "fluid/fluid_model.h"
#include "fluid/sweep.h"
#include "host/host_device.h"
#include "host/lru_cache.h"
#include "hybrid/engine.h"
#include "net/shard.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "sim/event_queue.h"
#include "workload/poisson.h"
#include "workload/sim_host.h"

namespace dcqcn {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  EventQueue eq;
  int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      eq.ScheduleIn(static_cast<Time>(i % 7), [&sink] { ++sink; });
    }
    eq.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueCancel(benchmark::State& state) {
  EventQueue eq;
  for (auto _ : state) {
    EventHandle h = eq.ScheduleIn(1000, [] {});
    eq.Cancel(h);
    eq.RunAll();
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_EcmpMix(benchmark::State& state) {
  uint64_t k = 1;
  for (auto _ : state) {
    k = EcmpMix(k, 42);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_EcmpMix);

void BM_RedMarking(benchmark::State& state) {
  const RedEcnConfig red = RedEcnConfig::Deployment();
  Rng rng(1);
  Bytes q = 0;
  for (auto _ : state) {
    q = (q + 1777) % (250 * kKB);
    benchmark::DoNotOptimize(RedShouldMark(red, q, rng));
  }
}
BENCHMARK(BM_RedMarking);

void BM_RpCnpAndRecovery(benchmark::State& state) {
  RpState rp(DcqcnParams::Deployment(), Gbps(40));
  for (auto _ : state) {
    rp.OnCnp();
    for (int i = 0; i < 8; ++i) rp.OnRateTimer();
    rp.OnBytesSent(kMtu);
    benchmark::DoNotOptimize(rp.current_rate());
  }
}
BENCHMARK(BM_RpCnpAndRecovery);

void BM_FluidStep(benchmark::State& state) {
  FluidParams p = FluidParams::FromDcqcn(DcqcnParams::Deployment(),
                                         Gbps(40), 16);
  FluidModel m(p);
  for (int i = 0; i < 16; ++i) m.StartFlow(i);
  for (auto _ : state) {
    m.Step();
    benchmark::DoNotOptimize(m.queue_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FluidStep);

void BM_SimulatedIncastMillisecond(benchmark::State& state) {
  // End-to-end cost of one simulated millisecond of an 8:1 DCQCN incast
  // through the shared-buffer switch.
  const int k = static_cast<int>(state.range(0));
  Network net(1);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  for (auto _ : state) {
    net.RunFor(Milliseconds(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedIncastMillisecond)->Arg(2)->Arg(8);

void BM_SwitchHotPath(benchmark::State& state) {
  // The telemetry overhead guard: the same 8:1 incast millisecond with the
  // event tracer disabled (Arg 0) vs enabled (Arg 1). Disabled tracing costs
  // one null-pointer branch per instrumentation site, so Arg(0) must stay
  // within noise of the pre-telemetry baseline (<= ~2%); Arg(1) bounds what
  // a traced run pays.
  const bool traced = state.range(0) != 0;
  const int k = 8;
  Network net(1);
  if (traced) net.EnableTracing();
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  for (auto _ : state) {
    net.RunFor(Milliseconds(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchHotPath)->Arg(0)->Arg(1);

void BM_TimerWheelPeriodic(benchmark::State& state) {
  // Dense short-horizon periodic timer load: Arg self-rearming timers with
  // DCQCN-like ~55 us periods, 10 simulated ms. This is the access pattern
  // the hierarchical timer wheel serves in O(1) per event where the binary
  // heap pays O(log n) twice (push + pop) at n = Arg pending timers.
  // Baseline practice: the median of --benchmark_repetitions=5, recorded
  // with every other row in BENCH_MICRO.json.
  const int n = static_cast<int>(state.range(0));
  struct PeriodicTimer {
    EventQueue* eq;
    Time period;
    int64_t* fired;
    void Arm() {
      eq->ScheduleIn(period, [this] {
        ++*fired;
        Arm();
      });
    }
  };
  int64_t fired = 0;
  for (auto _ : state) {
    EventQueue eq;
    eq.Reserve(static_cast<size_t>(n) + 8);
    std::vector<PeriodicTimer> timers(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Spread periods a little so fires don't all land on one instant.
      timers[static_cast<size_t>(i)] = {
          &eq, Microseconds(55) + Nanoseconds(13) * i, &fired};
      timers[static_cast<size_t>(i)].Arm();
    }
    eq.RunUntil(Milliseconds(10));
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_TimerWheelPeriodic)->Arg(1024)->Arg(4096);

void BM_NicTimerTick(benchmark::State& state) {
  // The NIC-side DCQCN timer machinery in isolation: 256 QPs on one host,
  // each re-CNP'd every iteration so its alpha + rate-increase timers stay
  // armed and firing, on a link slow enough that (re)transmissions never
  // produce packet events inside the measured window. Post-PR this is one
  // batched per-NIC tick walking an intrusive list; pre-PR it is 512
  // individual heap events per 55 us.
  const int kQps = 256;
  TopologyOptions topo_opts;
  topo_opts.link_rate = kKbps;  // 1 KB packet = 8 s serialization: inert
  Network net(1);
  StarTopology topo = BuildStar(net, 2, topo_opts);
  std::vector<SenderQp*> qps;
  for (int i = 0; i < kQps; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[0]->id();
    f.dst_host = topo.hosts[1]->id();
    f.size_bytes = 0;
    qps.push_back(net.StartFlow(f));
  }
  net.RunFor(Microseconds(1));  // past flow starts
  for (auto _ : state) {
    const Time now = net.eq().Now();
    for (SenderQp* qp : qps) qp->OnCnp(now);
    net.RunFor(Microseconds(500));  // ~9 alpha + ~9 rate fires per QP
  }
  state.SetItemsProcessed(state.iterations() * kQps);
}
BENCHMARK(BM_NicTimerTick);

void BM_TimerWheelDenseTick(benchmark::State& state) {
  // Arg events packed into one L0 tick ahead of the cursor, scheduled in a
  // fixed shuffled (time) order — the dense, out-of-order bucket a large
  // synchronized fabric builds — then fired. An ordered-insert chain walks
  // on each insert (O(Arg^2) per tick); append-then-sort-on-adoption pays
  // O(Arg log Arg) once.
  const int n = static_cast<int>(state.range(0));
  std::vector<Time> offsets(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) offsets[static_cast<size_t>(i)] = i;
  Rng rng(3);
  for (size_t i = offsets.size(); i > 1; --i) {
    std::swap(offsets[i - 1], offsets[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
  }
  EventQueue eq;
  eq.Reserve(static_cast<size_t>(n) + 8);
  int64_t fired = 0;
  for (auto _ : state) {
    // Two ticks past the cursor's tick: an L0 bucket ahead of the cursor.
    const Time base =
        ((eq.Now() >> TimerWheel::kTickBits) + 2) << TimerWheel::kTickBits;
    for (Time off : offsets) eq.ScheduleAt(base + off, [&fired] { ++fired; });
    eq.RunAll();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerWheelDenseTick)->Arg(256)->Arg(2048);

void BM_NicManyQpArbitration(benchmark::State& state) {
  // One NIC with 512 QPs, of which 8 greedy raw flows have data: the rest
  // finished their 1 KB message during set-up and stay open, like idle
  // connections on a busy host. Each send's round-robin scan then meets
  // 8 QPs with data among 512. 50 simulated us per iteration; items are
  // data packets sent.
  constexpr int kQps = 512;
  constexpr int kActive = 8;
  Network net(1);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  RdmaNic* src = topo.hosts[0];
  for (int i = 0; i < kQps; ++i) {
    FlowSpec f;
    f.flow_id = net.NextFlowId();
    f.src_host = src->id();
    f.dst_host = topo.hosts[1]->id();
    // Active flows spread over the table (and both bitmap words' range).
    f.size_bytes = i % (kQps / kActive) == kQps / kActive - 1 ? 0 : 1000;
    f.cc_policy = CcPolicyIdByName("raw");
    net.StartFlow(f);
  }
  net.RunFor(Microseconds(200));  // small flows complete
  int64_t sent = 0;
  for (auto _ : state) {
    const int64_t before = src->counters().data_packets_sent;
    net.RunFor(Microseconds(50));
    sent += src->counters().data_packets_sent - before;
  }
  state.SetItemsProcessed(sent);
}
BENCHMARK(BM_NicManyQpArbitration);

void BM_BuildClos(benchmark::State& state) {
  // Topology set-up alone: build (and tear down) the paper's 20-host Clos
  // or bench/ext_scale's 512-host one, routes included — the fixed cost
  // every trial on that topology pays before its first event.
  ClosShape shape;  // paper testbed: 4 ToRs x 5 hosts
  shape.hosts_per_tor = 5;
  if (state.range(0) == 512) {
    shape.pods = 8;
    shape.tors_per_pod = 4;
    shape.leaves_per_pod = 4;
    shape.spines = 8;
    shape.hosts_per_tor = 16;
  }
  DCQCN_CHECK(shape.num_tors() * shape.hosts_per_tor == state.range(0));
  for (auto _ : state) {
    Network net(1);
    const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
    benchmark::DoNotOptimize(topo.spines.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildClos)->Arg(20)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_FlowChurn(benchmark::State& state) {
  // Fixed per-flow cost: each iteration starts 64 one-packet DCQCN flows
  // across the paper's 20-host Clos or the 512-host one and runs until all
  // complete. Ids are fresh, as in a trial that keeps emitting; every 2048
  // flows the network is rebuilt (untimed), like a new trial. Per-flow state
  // that scales with the host count shows as a gap between the two args.
  // Items are completed flows.
  constexpr int kBatch = 64;
  constexpr int kFlowsPerNetwork = 2048;
  ClosShape shape;  // paper testbed: 4 ToRs x 5 hosts
  if (state.range(0) == 512) {
    shape.pods = 8;
    shape.tors_per_pod = 4;
    shape.leaves_per_pod = 4;
    shape.spines = 8;
    shape.hosts_per_tor = 16;
  }
  DCQCN_CHECK(shape.num_hosts() == state.range(0));
  std::unique_ptr<Network> net;
  std::vector<RdmaNic*> hosts;
  int completed = 0;
  int next = 0;  // flows started on `net`
  auto rebuild = [&] {
    net.reset();
    net = std::make_unique<Network>(1);
    const ClosTopology topo = BuildClos(*net, shape, TopologyOptions{});
    hosts = topo.AllHosts();
    for (RdmaNic* nic : hosts) nic->SetRetainCompletedRecords(false);
    net->AddCompletionHandler([&completed](const FlowRecord&) {
      ++completed;
    });
    next = 0;
  };
  rebuild();
  const int n = static_cast<int>(hosts.size());
  int64_t flows = 0;
  for (auto _ : state) {
    if (next == kFlowsPerNetwork) {
      state.PauseTiming();
      rebuild();
      state.ResumeTiming();
    }
    completed = 0;
    for (int j = 0; j < kBatch; ++j, ++next) {
      const int src = (next * 7) % n;
      FlowSpec f;
      f.flow_id = net->NextFlowId();
      f.src_host = hosts[static_cast<size_t>(src)]->id();
      f.dst_host = hosts[static_cast<size_t>((src + n / 2) % n)]->id();
      f.size_bytes = kMtu;
      f.start_time = net->eq().Now() + j * Nanoseconds(100);
      net->StartFlow(f);
    }
    while (completed < kBatch) net->RunFor(Microseconds(5));
    flows += kBatch;
  }
  state.SetItemsProcessed(flows);
}
BENCHMARK(BM_FlowChurn)->Arg(20)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_LargeClosThroughput(benchmark::State& state) {
  // The headline scale target: one simulated 300 us slice of a 32-ToR /
  // 512-host / 1024-flow Clos under cross-ToR incast + random traffic
  // (bench/ext_scale's xlarge shape). Exercises every scale-out change at
  // once: wheel-served timers, batched NIC ticks, the flow directory.
  ClosShape shape;
  shape.pods = 8;
  shape.tors_per_pod = 4;
  shape.leaves_per_pod = 4;
  shape.spines = 8;
  shape.hosts_per_tor = 16;
  Network net(1);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  const int n = static_cast<int>(hosts.size());
  const int hpt = shape.hosts_per_tor;
  Rng traffic(7);
  for (int i = 0; i < n; ++i) {
    const int tor = i / hpt;
    for (int f = 0; f < 2; ++f) {
      int dst = ((tor + 1) % shape.num_tors()) * hpt;
      if (f != 0) {
        do {
          dst = static_cast<int>(traffic.UniformInt(0, n - 1));
        } while (dst / hpt == tor);
      }
      FlowSpec fs;
      fs.flow_id = net.NextFlowId();
      fs.src_host = hosts[static_cast<size_t>(i)]->id();
      fs.dst_host = hosts[static_cast<size_t>(dst)]->id();
      fs.size_bytes = 0;
      fs.ecmp_salt = traffic.NextU64();
      net.StartFlow(fs);
    }
  }
  uint64_t events = 0;
  for (auto _ : state) {
    events += net.eq().RunUntil(net.eq().Now() + Microseconds(300));
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_LargeClosThroughput);

void BM_LargeClosShardedThroughput(benchmark::State& state) {
  // The same 32-ToR / 512-host / 1024-flow slice on the sharded engine
  // (Arg = shard count). Wall-clock speedup needs real cores: on a 1-CPU
  // runner the shards>1 rows measure the engine's coordination overhead
  // (barriers + channel injection + per-Run thread spawn), not parallelism.
  const int shards = static_cast<int>(state.range(0));
  ClosShape shape;
  shape.pods = 8;
  shape.tors_per_pod = 4;
  shape.leaves_per_pod = 4;
  shape.spines = 8;
  shape.hosts_per_tor = 16;
  const ShardPlan plan = MakeClosShardPlan(shape, shards);
  Network net(1, plan);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  const int n = static_cast<int>(hosts.size());
  const int hpt = shape.hosts_per_tor;
  Rng traffic(7);
  for (int i = 0; i < n; ++i) {
    const int tor = i / hpt;
    for (int f = 0; f < 2; ++f) {
      int dst = ((tor + 1) % shape.num_tors()) * hpt;
      if (f != 0) {
        do {
          dst = static_cast<int>(traffic.UniformInt(0, n - 1));
        } while (dst / hpt == tor);
      }
      FlowSpec fs;
      fs.flow_id = net.NextFlowId();
      fs.src_host = hosts[static_cast<size_t>(i)]->id();
      fs.dst_host = hosts[static_cast<size_t>(dst)]->id();
      fs.size_bytes = 0;
      fs.ecmp_salt = traffic.NextU64();
      net.StartFlow(fs);
    }
  }
  uint64_t events = 0;
  Time now = 0;
  for (auto _ : state) {
    now += Microseconds(300);
    events += net.Run(now);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_LargeClosShardedThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime();

void BM_ShardBarrier(benchmark::State& state) {
  // Pure window-coordination overhead: a 4-shard 8-ToR fabric with no
  // traffic, so every conservative window is empty and the loop measures
  // barrier rounds + channel sweeps + per-Run worker spawn. Items =
  // windows retired (simulated span / lookahead).
  ClosShape shape;
  shape.pods = 4;
  shape.tors_per_pod = 2;
  shape.leaves_per_pod = 2;
  shape.spines = 4;
  shape.hosts_per_tor = 2;
  const ShardPlan plan = MakeClosShardPlan(shape, 4);
  Network net(1, plan);
  BuildClos(net, shape, TopologyOptions{});
  const Time slice = Microseconds(100);
  int64_t windows = 0;
  Time now = 0;
  for (auto _ : state) {
    now += slice;
    net.Run(now);
    windows += static_cast<int64_t>(slice / net.lookahead());
  }
  state.SetItemsProcessed(windows);
}
BENCHMARK(BM_ShardBarrier)->UseRealTime();

void BM_CrossShardChannel(benchmark::State& state) {
  // The boundary hot path: a 2-shard paper-shape Clos where every flow
  // crosses the cut, so each delivery rides a timestamped channel (egress
  // push at Transmit, barrier injection at the window edge) instead of a
  // same-shard schedule. Items = events executed.
  const ClosShape shape;  // 4 ToRs / 20 hosts; cut = {T0,T1} | {T2,T3}
  const ShardPlan plan = MakeClosShardPlan(shape, 2);
  Network net(1, plan);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  Rng traffic(7);
  // Every host under T0/T1 sends to its mirror under T2/T3 and vice versa.
  const int hpt = shape.hosts_per_tor;
  for (int tor = 0; tor < shape.num_tors(); ++tor) {
    for (int h = 0; h < hpt; ++h) {
      FlowSpec fs;
      fs.flow_id = net.NextFlowId();
      fs.src_host = topo.host(tor, h)->id();
      fs.dst_host =
          topo.host((tor + 2) % shape.num_tors(), h)->id();
      fs.size_bytes = 0;
      fs.ecmp_salt = traffic.NextU64();
      net.StartFlow(fs);
    }
  }
  uint64_t events = 0;
  Time now = 0;
  for (auto _ : state) {
    now += Microseconds(100);
    events += net.Run(now);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_CrossShardChannel)->UseRealTime();

void BM_HybridFastForward(benchmark::State& state) {
  // The hybrid engine's target regime: sparse open-loop Poisson arrivals on
  // a 64-host Clos. Arg 0 runs the plain packet engine, arg 1 the hybrid
  // controller — the items/sec ratio between the two rows is the fast-path
  // dividend (simulated picoseconds per wall second; items = simulated us).
  ClosShape shape;
  shape.pods = 4;
  shape.tors_per_pod = 2;
  shape.leaves_per_pod = 2;
  shape.spines = 4;
  shape.hosts_per_tor = 8;
  Network net(1);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  std::optional<hybrid::HybridEngine> hyb;
  if (state.range(0) != 0) {
    hybrid::HybridConfig cfg;
    cfg.check_interval = Microseconds(5);
    cfg.release_completed = true;
    hyb.emplace(&net, cfg);
  }
  std::vector<RdmaNic*> hosts;
  for (const auto& tor_hosts : topo.hosts_by_tor) {
    hosts.insert(hosts.end(), tor_hosts.begin(), tor_hosts.end());
  }
  workload::SimWorkloadHost whost(net, hosts);
  workload::PoissonOptions popt;
  popt.offered_load = Gbps(40) * static_cast<double>(hosts.size()) * 0.01;
  popt.seed = 17;
  workload::PoissonPattern pattern(popt);
  whost.Begin(pattern);

  const Time slice = Milliseconds(1);
  Time now = 0;
  for (auto _ : state) {
    now += slice;
    if (hyb.has_value()) {
      hyb->Run(now);
    } else {
      net.Run(now);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(slice / kMicrosecond));
}
BENCHMARK(BM_HybridFastForward)->Arg(0)->Arg(1)->UseRealTime();

void BM_RunnerFluidSweep(benchmark::State& state) {
  // Serial-vs-parallel throughput of the experiment runner on a 16-trial
  // fluid-model sweep (the Fig. 12-style matrix). Arg = --jobs; real time
  // so the wall-clock speedup of the work-stealing pool is what's measured.
  // On an M-core machine jobs=M should approach M-fold items/sec vs jobs=1.
  const int jobs = static_cast<int>(state.range(0));
  std::vector<runner::TrialSpec> matrix;
  for (int i = 0; i < 16; ++i) {
    const int n = 2 + (i % 4) * 4;  // incast degrees 2, 6, 10, 14
    FluidParams p =
        FluidParams::FromDcqcn(DcqcnParams::Deployment(), Gbps(40), n);
    p.g = 1.0 / (16.0 * (1 << (i % 3)));
    matrix.push_back(IncastQueueTrial("cell" + std::to_string(i), p, n,
                                      /*sim_seconds=*/0.02));
  }
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  for (auto _ : state) {
    auto results = runner::RunTrials(matrix, opt);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(matrix.size()));
}
BENCHMARK(BM_RunnerFluidSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Pure generator overhead of the WorkloadPattern seam: a null host absorbs
// emissions (no network), so each iteration measures one poisson arrival —
// the timer callback, the RNG draws, the size-CDF inversion and the
// bookkeeping. Guards the per-flow cost the engine pays before any packet
// exists (matters when a 512-host trial emits hundreds of flows per
// simulated millisecond).
class NullWorkloadHost : public workload::WorkloadHost {
 public:
  explicit NullWorkloadHost(int num_hosts) : num_hosts_(num_hosts) {}

  Time Now() const override { return now_; }
  int num_hosts() const override { return num_hosts_; }
  int LaunchFlow(const workload::EmitSpec& spec) override {
    benchmark::DoNotOptimize(spec.size_bytes);
    ++metrics_.started;
    ++metrics_.in_flight;
    return next_id_++;
  }
  bool EnqueueOnFlow(int flow_id, Bytes bytes) override {
    benchmark::DoNotOptimize(flow_id);
    benchmark::DoNotOptimize(bytes);
    ++metrics_.started;
    ++metrics_.in_flight;
    return true;
  }
  void ScheduleIn(Time delay, std::function<void()> cb) override {
    now_ += delay;
    pending_.push_back(std::move(cb));
  }
  workload::WorkloadMetrics& metrics() override { return metrics_; }

  void RunOne() {
    if (pending_.empty()) return;
    std::function<void()> cb = std::move(pending_.back());
    pending_.pop_back();
    cb();
  }

 private:
  int num_hosts_;
  Time now_ = 0;
  int next_id_ = 0;
  std::vector<std::function<void()>> pending_;
  workload::WorkloadMetrics metrics_;
};

void BM_WorkloadEmit(benchmark::State& state) {
  NullWorkloadHost host(512);
  workload::PoissonOptions opts;
  opts.offered_load = Gbps(2000);
  opts.seed = 7;
  workload::PoissonPattern pattern(opts);
  pattern.Begin(host);
  for (auto _ : state) {
    host.RunOne();  // one arrival: launch + reschedule
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadEmit);

// Host-path device pipeline: post -> doorbell batch -> PCIe/cache charges
// -> launch event, 64 WRs per iteration on one warm QP (all cache hits).
// Guards the per-WR cost of the src/host/ frontier arithmetic + event
// scheduling.
void BM_HostDoorbell(benchmark::State& state) {
  EventQueue eq;
  host::HostPathConfig cfg;
  cfg.enabled = true;
  cfg.sq_depth = 1 << 20;  // never backlog: measure the pipeline itself
  cfg.doorbell_batch = 8;
  host::HostPathDevice dev(&eq, cfg, /*node_id=*/0);
  dev.CreateQp(0);
  int64_t launched = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      dev.Post(0, host::Verb::kWrite, 4096,
               [&launched] { ++launched; return true; });
    }
    eq.RunUntil(eq.Now() + Milliseconds(1));  // drain every launch event
  }
  benchmark::DoNotOptimize(launched);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HostDoorbell);

// QP context cache under churn: round-robin over 128 keys. Arg is the
// capacity — 64 = the LRU worst case (every lookup misses + evicts),
// 256 = steady-state all-hit. Guards the O(1) dense-LRU hot path.
void BM_QpCacheChurn(benchmark::State& state) {
  host::LruCtxCache cache(static_cast<int>(state.range(0)));
  int key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch(key));
    key = (key + 1) & 127;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QpCacheChurn)->Arg(64)->Arg(256);

}  // namespace
}  // namespace dcqcn

BENCHMARK_MAIN();
