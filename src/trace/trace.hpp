// Packet-event tracing, the ns-2 trace-file analogue.
//
// A Tracer fans packet events (enqueue, dequeue, queue drop, loss-model
// drop, delivery, origination) out to any number of sinks. MemoryTrace
// keeps records for programmatic inspection (tests, examples); FileTrace
// writes an ns-2-style text trace. Tracing is off unless a Tracer is
// attached to the Network, and costs one branch per event otherwise.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tcppr::trace {

enum class EventType : std::uint8_t {
  kOriginate,  // handed to the network by an agent
  kEnqueue,    // entered a link queue
  kDequeue,    // began transmission
  kQueueDrop,  // rejected by a full queue
  kLossDrop,   // taken by a loss model / drop filter
  kDeliver,    // handed to the destination agent
};

const char* to_string(EventType type);

struct Record {
  sim::TimePoint time;
  EventType type = EventType::kOriginate;
  net::NodeId from = net::kInvalidNode;  // link endpoint / acting node
  net::NodeId to = net::kInvalidNode;
  std::uint64_t uid = 0;
  net::FlowId flow = net::kInvalidFlow;
  net::SeqNo seq = 0;
  bool is_ack = false;
  std::uint32_t size_bytes = 0;
  friend bool operator==(const Record&, const Record&) = default;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const Record& record) = 0;
};

class Tracer {
 public:
  void add_sink(TraceSink* sink);
  bool active() const { return !sinks_.empty(); }

  void emit(sim::TimePoint time, EventType type, const net::Packet& pkt,
            net::NodeId from, net::NodeId to);

  // Hands an already-built record to every sink. The parallel engine's
  // barrier merge replays per-shard buffered records through this, in the
  // order the sequential run would have emitted them.
  void dispatch(const Record& record) {
    for (TraceSink* sink : sinks_) sink->record(record);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// Keeps every record in memory; query helpers for tests and examples.
class MemoryTrace final : public TraceSink {
 public:
  void record(const Record& record) override { records_.push_back(record); }

  const std::vector<Record>& records() const { return records_; }
  std::size_t count(EventType type) const;
  std::size_t count(EventType type, net::FlowId flow) const;
  // Records matching a predicate.
  std::vector<Record> select(
      const std::function<bool(const Record&)>& pred) const;
  void clear() { records_.clear(); }

 private:
  std::vector<Record> records_;
};

// ns-2-style single-line-per-event text trace:
//   <op> <time> <from> <to> <tcp|ack> <bytes> <flow> <seq> <uid>
// where op is one of o + - d l r (originate, enqueue, dequeue, queue drop,
// loss drop, receive).
class FileTrace final : public TraceSink {
 public:
  explicit FileTrace(const std::string& path);
  ~FileTrace() override;

  FileTrace(const FileTrace&) = delete;
  FileTrace& operator=(const FileTrace&) = delete;

  void record(const Record& record) override;
  void flush();
  bool ok() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace tcppr::trace
