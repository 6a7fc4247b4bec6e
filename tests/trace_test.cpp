// Tests for the packet tracing subsystem: sink fan-out, record content,
// agreement with link statistics, and the ns-2-style file format.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "app/sources.hpp"
#include "net/network.hpp"
#include "tcp/receiver.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace tcppr::trace {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

TEST(Trace, EventTypeNames) {
  EXPECT_STREQ(to_string(EventType::kEnqueue), "enqueue");
  EXPECT_STREQ(to_string(EventType::kQueueDrop), "queue-drop");
  EXPECT_STREQ(to_string(EventType::kDeliver), "deliver");
}

TEST(Trace, RecordsOriginationAndDelivery) {
  PathFixture f;
  MemoryTrace memory;
  f.network->add_trace_sink(&memory);
  auto* sender = f.add_flow(TcpVariant::kTcpPr, 1);
  sender->set_transfer_segments(10);
  sender->start();
  f.run_for(5);
  // 10 data packets + 10 ACKs originated; each delivered once.
  EXPECT_EQ(memory.count(EventType::kOriginate), 20u);
  EXPECT_EQ(memory.count(EventType::kDeliver), 20u);
  EXPECT_EQ(memory.count(EventType::kQueueDrop), 0u);
}

TEST(Trace, EnqueueDequeueBalance) {
  PathFixture f;
  MemoryTrace memory;
  f.network->add_trace_sink(&memory);
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  sender->set_transfer_segments(50);
  sender->start();
  f.run_for(10);
  // Nothing dropped: every enqueue eventually dequeues.
  EXPECT_EQ(memory.count(EventType::kEnqueue),
            memory.count(EventType::kDequeue));
  EXPECT_GT(memory.count(EventType::kEnqueue), 100u);  // multiple hops
}

TEST(Trace, QueueDropsMatchLinkStats) {
  PathFixture f(1e6, sim::Duration::millis(10), /*queue_limit=*/5);
  MemoryTrace memory;
  f.network->add_trace_sink(&memory);
  auto* sender = f.add_flow(TcpVariant::kReno, 1);
  sender->start();
  f.run_for(10);
  EXPECT_EQ(memory.count(EventType::kQueueDrop),
            f.fwd->queue().stats().dropped + f.rev->queue().stats().dropped);
  EXPECT_GT(memory.count(EventType::kQueueDrop), 0u);
}

TEST(Trace, LossModelDropsTraced) {
  PathFixture f;
  MemoryTrace memory;
  f.network->add_trace_sink(&memory);
  f.fwd->set_loss_model(0.1, sim::Rng(3));
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  sender->set_transfer_segments(300);
  sender->start();
  f.run_for(60);
  EXPECT_EQ(memory.count(EventType::kLossDrop), f.fwd->stats().lost);
  EXPECT_GT(memory.count(EventType::kLossDrop), 0u);
}

TEST(Trace, RecordsCarryFlowAndSeq) {
  PathFixture f;
  MemoryTrace memory;
  f.network->add_trace_sink(&memory);
  auto* sender = f.add_flow(TcpVariant::kTcpPr, 7);
  sender->set_transfer_segments(3);
  sender->start();
  f.run_for(2);
  const auto data_originations = memory.select([](const Record& r) {
    return r.type == EventType::kOriginate && !r.is_ack;
  });
  ASSERT_EQ(data_originations.size(), 3u);
  EXPECT_EQ(data_originations[0].flow, 7);
  EXPECT_EQ(data_originations[0].seq, 0);
  EXPECT_EQ(data_originations[2].seq, 2);
  EXPECT_EQ(data_originations[0].size_bytes, 1040u);
}

TEST(Trace, MultipleSinksAllFed) {
  PathFixture f;
  MemoryTrace a;
  MemoryTrace b;
  f.network->add_trace_sink(&a);
  f.network->add_trace_sink(&b);
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  sender->set_transfer_segments(5);
  sender->start();
  f.run_for(2);
  EXPECT_EQ(a.records().size(), b.records().size());
  EXPECT_GT(a.records().size(), 0u);
}

TEST(Trace, FileTraceWritesParsableLines) {
  const std::string path = "/tmp/tcppr_trace_test.tr";
  {
    PathFixture f;
    FileTrace file(path);
    ASSERT_TRUE(file.ok());
    f.network->add_trace_sink(&file);
    auto* sender = f.add_flow(TcpVariant::kTcpPr, 1);
    sender->set_transfer_segments(5);
    sender->start();
    f.run_for(2);
    file.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::istringstream ss(line);
    char op;
    double time;
    int from, to;
    std::string proto;
    unsigned bytes;
    int flow;
    long long seq;
    unsigned long long uid;
    ss >> op >> time >> from >> to >> proto >> bytes >> flow >> seq >> uid;
    ASSERT_FALSE(ss.fail()) << "unparsable: " << line;
    EXPECT_TRUE(proto == "tcp" || proto == "ack");
    EXPECT_GE(time, 0.0);
  }
  EXPECT_GT(lines, 10);
  std::remove(path.c_str());
}

TEST(Trace, InactiveTracerCostsNothingVisible) {
  // No sinks attached: simulation behaves identically (event counts).
  const auto run = [](bool traced) {
    PathFixture f;
    MemoryTrace memory;
    if (traced) f.network->add_trace_sink(&memory);
    auto* sender = f.add_flow(TcpVariant::kSack, 1);
    sender->set_transfer_segments(100);
    sender->start();
    f.run_for(10);
    return f.sched.processed_count();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace tcppr::trace
