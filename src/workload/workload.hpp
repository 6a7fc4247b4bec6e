// Flow lifecycle engine: dynamic arrivals and genuine departures.
//
// Every scenario before this layer built its flows before t=0 and kept
// them alive forever. The WorkloadEngine instead runs an arrival process
// (Poisson, a heavy-tailed web mice/elephants mix, or a fixed population
// of on/off sources with log-normal think times) that creates a sender at
// arrival time and *tears the flow down* when the transfer completes:
// the sender detaches from its node and dies, a kTcpClose packet tells the
// receiver side to reclaim its state, the flow-id slot enters a 2MSL-style
// quarantine and is recycled for a later arrival, and any per-flow
// observability entries are retired from the MetricRegistry.
//
// Determinism: every random draw happens inside events owned by the source
// host's node (the arrival timer and per-source restart events), and each
// flow's characteristics come from an Rng forked on the flow's monotone
// arrival index — never on the recycled flow id. Under the stamped
// parallel engine all of the engine's scheduling goes through the
// *_for(entity) API, so a churning run is byte-identical across
// --par {1,2,4}.
//
// Receiver side: senders are created on the source host's LP, so the
// engine cannot construct the Receiver (it lives on another LP's node).
// Instead a FlowServer is installed as the destination node's default
// agent; the first data segment of an unknown flow — which executes on the
// destination LP — creates the Receiver on the spot. kTcpClose (or an
// idle-lease reaper, for closes lost to queue drops) reclaims it.
//
// Per-flow engine state lives in struct-of-arrays slabs with an asserted
// byte budget (kSlabBytesPerSlot below; the live transport objects
// themselves are transport state, not bookkeeping, and are counted
// separately) so the slot table scales to ~1M flow ids.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "harness/scenarios.hpp"
#include "stats/reorder.hpp"
#include "workload/slot_table.hpp"

namespace tcppr::harness {
class ParallelSim;
}

namespace tcppr::telemetry {
class Telemetry;
}

namespace tcppr::workload {

enum class WorkloadKind { kPoisson, kWeb, kOnOff };

const char* to_string(WorkloadKind kind);
// Parses "poisson" / "web" / "onoff"; false on anything else.
bool parse_workload_kind(std::string_view name, WorkloadKind* out);

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kPoisson;
  // Poisson/web: mean flow arrivals per second. On/off: ignored (the
  // population and think times set the offered load).
  double arrival_rate = 100.0;

  // Pareto flow sizes in segments, truncated to [min, max].
  double pareto_shape = 1.3;
  net::SeqNo min_segments = 2;
  net::SeqNo max_segments = 4096;

  // Web mix: arrivals are mice (log-uniform RPC-sized transfers) except
  // for an elephant_fraction of Pareto-sized bulk transfers.
  double elephant_fraction = 0.05;
  net::SeqNo mouse_min_segments = 2;
  net::SeqNo mouse_max_segments = 16;

  // On/off sources: each member of a fixed population alternates one
  // transfer (Pareto size) with a log-normal think time
  // exp(think_mu + think_sigma * N(0,1)) seconds.
  int onoff_sources = 32;
  double think_mu = -0.7;
  double think_sigma = 1.0;

  // Per-arrival variant mix: TCP-PR with probability pr_fraction, SACK
  // otherwise (the paper's competition pairing).
  double pr_fraction = 0.5;

  // Flow-id slot table. Flow ids are first_flow_id + slot; a slot freed at
  // teardown is quarantined for `quarantine` before reuse so stale
  // in-flight packets of the dead incarnation cannot alias the new flow's
  // sequence space (the 2MSL problem).
  int max_concurrent = 4096;
  int id_slots = 8192;
  net::FlowId first_flow_id = 1 << 20;
  sim::Duration quarantine = sim::Duration::seconds(2);

  // Receiver-side idle lease: a receiver whose kTcpClose was lost (queue
  // drop) is reaped after reap_idle without traffic. The reaper is a
  // clock-hand sweep that visits a bounded chunk of the slot table every
  // reap_sweep, completing a full pass within reap_idle/2 — so a reap
  // happens at most 1.5 * reap_idle + reap_sweep after the last packet,
  // and no single event scans the whole table at 2^20 slots. Keep that
  // worst case below quarantine or a recycled slot could find the old
  // incarnation's receiver still attached.
  sim::Duration reap_idle = sim::Duration::seconds(1);
  sim::Duration reap_sweep = sim::Duration::millis(250);

  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  std::uint64_t seed = 1;
};

// The million-flow preset (ISSUE 9 / ROADMAP top-end row): a fixed on/off
// population of `concurrent` sources — each holding a long Pareto transfer
// with a ~1 s log-normal think between transfers — so steady-state
// concurrency pins at the population size while the mice in the Pareto
// tail still complete, recycle their id slots through the quarantine FIFO
// and restart. Pair with harness::million_fan_config(concurrent) so the
// per-flow bandwidth share keeps each flow near cwnd 1-2.
WorkloadConfig million_workload_config(int concurrent);

struct WorkloadStats {
  std::uint64_t arrivals = 0;   // senders created
  std::uint64_t completed = 0;  // transfers fully acknowledged + torn down
  std::uint64_t rejected = 0;   // arrivals dropped: capacity or no cool slot
  std::uint64_t receivers_created = 0;
  std::uint64_t receivers_closed = 0;  // reclaimed via kTcpClose
  std::uint64_t receivers_reaped = 0;  // reclaimed by the idle lease
  // Receivers re-created mid-stream at a reaped incarnation's high-water
  // mark (sender retried after its receiver was idle-reaped).
  std::uint64_t receivers_resumed = 0;
  std::uint64_t stray_packets = 0;     // data for out-of-range flow ids
  std::size_t active = 0;              // live senders now
  std::size_t peak_active = 0;
  double sum_completion_s = 0;  // over completed flows
  double mean_completion_s() const {
    return completed == 0 ? 0.0
                          : sum_completion_s / static_cast<double>(completed);
  }
};

// Receiver-side demultiplexer: the destination node's default agent.
// Creates a Receiver (plus a pooled ReorderMonitor tap) for the first data
// segment of an unknown workload flow, reclaims it on kTcpClose or idle
// lease, and folds departed flows' reorder stats into one aggregate
// monitor — constant-memory reordering telemetry at churn scale.
class FlowServer final : public net::Agent {
 public:
  FlowServer(net::Network& network, net::NodeId local, net::NodeId remote,
             const WorkloadConfig& config);
  ~FlowServer() override;

  FlowServer(const FlowServer&) = delete;
  FlowServer& operator=(const FlowServer&) = delete;

  // Re-points the server's scheduling (reap timer, deferred closes) at the
  // LP shard owning the destination node; parallel mode only, before the
  // run starts. Sequential runs stay on the network's scheduler.
  void bind_shard(sim::Scheduler& shard);
  void set_metric_registry(obs::MetricRegistry* registry) {
    registry_ = registry;
  }
  // Link-tap telemetry retirement: close_slot reports the departed flow so
  // every tap folds its slot/exact entry (idempotent — the engine's sender
  // teardown reports the same departure). Sequential mode only, like the
  // metric registry above.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }
  void start();
  void stop();

  void deliver(net::Packet&& pkt) override;

  std::uint64_t receivers_created() const { return created_; }
  std::uint64_t receivers_closed() const { return closed_; }
  std::uint64_t receivers_reaped() const { return reaped_; }
  std::uint64_t receivers_resumed() const { return resumed_; }
  std::uint64_t stray_packets() const { return stray_; }
  std::size_t live_receivers() const { return live_; }
  // Folded reorder stats of departed flows plus the live flows' monitors.
  void fold_reorder_stats(stats::ReorderMonitor& into) const;
  // Receiver-side slab bytes (per-slot arrays; excludes live Receiver /
  // monitor objects, which scale with concurrency, not slot space).
  std::size_t slab_bytes() const;
  static constexpr std::size_t kSlabBytesPerSlot =
      sizeof(std::unique_ptr<tcp::Receiver>) +
      sizeof(std::unique_ptr<stats::ReorderMonitor>) +
      sizeof(std::int64_t) + sizeof(std::uint32_t);

 private:
  void open_slot(std::uint32_t slot, net::SeqNo first_seq);
  void close_slot(std::uint32_t slot, bool reaped);
  void schedule_close(std::uint32_t slot);
  void reap_sweep();
  // Slots visited per sweep: the clock hand completes a full pass within
  // reap_idle/2, so per-sweep work is bounded by the table size divided by
  // the sweeps in half a lease (and a reap happens at most
  // 1.5 * reap_idle + reap_sweep after the last packet).
  std::size_t reap_chunk() const;
  void touch(std::uint32_t slot);
  // Slot for a workload flow id, or -1 when the packet is not ours.
  std::int32_t slot_of(net::FlowId flow) const;

  net::Network& network_;
  net::NodeId local_;
  net::NodeId remote_;
  const WorkloadConfig& config_;
  sim::Scheduler* sched_;  // dst shard in parallel mode
  // Liveness sentinel for deferred close events (same pattern as
  // harness::ShortFlowPool): a server destroyed with closes pending must
  // not be fired into.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  sim::Timer reap_timer_;
  bool running_ = false;
  std::size_t reap_cursor_ = 0;  // clock hand over the slot arrays

  // Struct-of-arrays receiver slab, indexed by flow-id slot; grows to the
  // high-water slot index actually delivered to.
  std::vector<std::unique_ptr<tcp::Receiver>> rx_;
  std::vector<std::unique_ptr<stats::ReorderMonitor>> mon_;
  std::vector<std::int64_t> last_activity_ns_;
  // rcv_next high-water mark of an idle-reaped receiver, kept so a later
  // mid-stream segment from the same still-retrying sender resumes there
  // (quarantine guarantees the flow id was not reused in between). Cleared
  // when a flow starts over at sequence zero or departs via kTcpClose.
  std::vector<std::uint32_t> resume_next_;

  // Reset monitors waiting for the next flow (bounded by peak concurrency).
  std::vector<std::unique_ptr<stats::ReorderMonitor>> mon_pool_;
  stats::ReorderMonitor departed_agg_;

  obs::MetricRegistry* registry_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::uint64_t created_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t reaped_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t stray_ = 0;
  std::size_t live_ = 0;
};

class WorkloadEngine {
 public:
  // `scenario` must be fully built (topology + routes + src/dst hosts).
  // In parallel mode pass the ParallelSim — the engine is created after it
  // (like the fuzzer's LinkFlapper) and schedules directly on the shards
  // owning the source and destination hosts. The engine borrows both and
  // must be destroyed before them.
  WorkloadEngine(harness::Scenario& scenario, WorkloadConfig config,
                 harness::ParallelSim* psim = nullptr);
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  // Observability, sequential mode only (parallel mode does not support
  // obs probes): per-flow probes attach to every dynamic sender/receiver,
  // and teardown retires the flow's registry entries. Pair with
  // registry.set_aggregate_only(true) at churn scale.
  void set_metric_registry(obs::MetricRegistry& registry);
  // Link-tap telemetry retirement on flow teardown (sequential mode only;
  // in parallel mode taps belong to shard threads and departed flows are
  // displaced by slot-tenure pressure instead).
  void set_telemetry(telemetry::Telemetry* telemetry);

  void start();
  // Stops new arrivals; in-flight flows keep draining until destruction.
  void stop();

  WorkloadStats stats() const;
  std::size_t live_receivers() const { return server_->live_receivers(); }
  // Aggregate reordering telemetry over departed + live flows.
  stats::ReorderMonitor reorder_stats() const;

  // Engine + server slab bytes currently reserved (capacity, not size —
  // what the process actually holds), and the asserted per-slot budget.
  std::size_t slab_bytes() const;
  std::size_t slots_in_use() const { return slots_.size(); }
  static constexpr std::size_t kSlabBytesPerSlot =
      sizeof(std::uint8_t) + sizeof(std::int64_t) + sizeof(std::int32_t) +
      sizeof(std::unique_ptr<tcp::SenderBase>);
  static_assert(kSlabBytesPerSlot + SlotTable::kSlabBytesPerSlot +
                        FlowServer::kSlabBytesPerSlot <=
                    64,
                "per-flow slab budget: engine + slot-table + receiver-side "
                "bookkeeping must fit 64 bytes per flow-id slot");

 private:
  void schedule_next_arrival();
  void schedule_source_restart(int source);
  void spawn_flow(int source);  // -1: Poisson/web arrival
  void on_complete(std::uint32_t slot, std::uint32_t gen);
  void teardown(std::uint32_t slot, std::uint32_t gen);
  void send_close(net::FlowId flow);
  net::SeqNo sample_size(sim::Rng& rng) const;

  harness::Scenario& scenario_;
  WorkloadConfig config_;
  sim::Scheduler* src_sched_;
  sim::Scheduler* dst_sched_;
  bool parallel_ = false;
  net::NodeId src_;
  net::NodeId dst_;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  sim::Rng rng_;          // per-flow fork source, keyed by arrival index
  sim::Rng arrival_rng_;  // interarrival / think-time draws
  sim::Timer arrival_timer_;
  std::vector<sim::EventId> source_restarts_;  // on/off, per source
  bool running_ = false;
  std::uint64_t arrival_seq_ = 0;  // monotone; never recycled

  // O(1) slot lifecycle (quarantine FIFO, generations) — see
  // slot_table.hpp — plus lockstep struct-of-arrays flow slabs indexed by
  // slot, grown lazily to the high-water slot count, capped at
  // config.id_slots.
  SlotTable slots_;
  std::vector<std::uint8_t> variant_;
  std::vector<std::int64_t> started_ns_;
  std::vector<std::int32_t> source_;  // on/off source index, -1 otherwise
  std::vector<std::unique_ptr<tcp::SenderBase>> sender_;

  std::unique_ptr<FlowServer> server_;
  obs::MetricRegistry* registry_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  WorkloadStats stats_;
};

}  // namespace tcppr::workload
