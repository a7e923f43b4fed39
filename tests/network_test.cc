// Simulated network: latency, ordering, partitions, crash-drop semantics,
// and traffic accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.h"
#include "sim/sim_context.h"

namespace tpc::net {
namespace {

// Payload buffers are recycled when OnMessage returns, so the endpoint
// copies the delivered bytes out while they are still live.
class RecordingEndpoint : public Endpoint {
 public:
  RecordingEndpoint(sim::SimContext* ctx, Network* network)
      : ctx_(ctx), network_(network) {}

  void OnMessage(const Message& msg) override {
    received.push_back({ctx_->now(), msg.from, std::string(msg.TagView()),
                        std::string(network_->PayloadOf(msg))});
  }
  bool IsUp() const override { return up; }

  struct Delivery {
    sim::Time at;
    uint32_t from;
    std::string tag;
    std::string payload;
  };
  std::vector<Delivery> received;
  bool up = true;

 private:
  sim::SimContext* ctx_;
  Network* network_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&ctx_), a_(&ctx_, &network_), b_(&ctx_, &network_) {
    network_.Register("a", &a_);
    network_.Register("b", &b_);
  }

  Message Make(const std::string& from, const std::string& to,
               std::string_view tag = "PING") {
    Message msg;
    msg.from = network_.InternId(from);
    msg.to = network_.InternId(to);
    msg.trace_tag = tag;
    msg.txn = 1;
    return msg;
  }

  sim::SimContext ctx_;
  Network network_;
  RecordingEndpoint a_, b_;
};

TEST_F(NetworkTest, DeliversWithDefaultLatency) {
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].at, sim::kMillisecond);
  EXPECT_EQ(b_.received[0].from, network_.IdOf("a"));
}

TEST_F(NetworkTest, PerLinkLatencyOverride) {
  network_.SetLinkLatency("a", "b", 50 * sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].at, 50 * sim::kMillisecond);
}

TEST_F(NetworkTest, SessionOrderPreservedWhenLatencyDrops) {
  // First message at 50ms latency, second at 1ms: FIFO still holds.
  network_.SetLinkLatency("a", "b", 50 * sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b", "FIRST")).ok());
  network_.SetLinkLatency("a", "b", sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b", "SECOND")).ok());
  ctx_.events().Run();
  ASSERT_EQ(b_.received.size(), 2u);
  EXPECT_EQ(b_.received[0].tag, "FIRST");
  EXPECT_EQ(b_.received[1].tag, "SECOND");
  EXPECT_GE(b_.received[1].at, b_.received[0].at);
}

TEST_F(NetworkTest, UnknownSenderOrDestinationRejected) {
  // Interned but never registered: no endpoint behind the id.
  EXPECT_TRUE(network_.Send(Make("ghost", "b")).IsInvalidArgument());
  EXPECT_TRUE(network_.Send(Make("a", "ghost2")).IsInvalidArgument());
  // Never interned at all (default-initialized message ids).
  Message blank;
  EXPECT_TRUE(network_.Send(std::move(blank)).IsInvalidArgument());
  EXPECT_EQ(network_.stats().messages_rejected, 3u);
}

TEST_F(NetworkTest, DeadSenderRejected) {
  a_.up = false;
  EXPECT_TRUE(network_.Send(Make("a", "b")).IsFailedPrecondition());
}

TEST_F(NetworkTest, DeadReceiverDropsSilently) {
  b_.up = false;
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());  // sender sees no error
  ctx_.events().Run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(network_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, ReceiverCrashAfterSendStillDrops) {
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  b_.up = false;  // crashes while the message is in flight
  ctx_.events().Run();
  EXPECT_TRUE(b_.received.empty());
}

TEST_F(NetworkTest, LinkDownDropsBothDirections) {
  network_.SetLinkDown("a", "b", true);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ASSERT_TRUE(network_.Send(Make("b", "a")).ok());
  ctx_.events().Run();
  EXPECT_TRUE(a_.received.empty());
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(network_.stats().messages_dropped, 2u);

  network_.SetLinkDown("a", "b", false);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, StatsCountFlowsAndBytes) {
  Message msg = Make("a", "b");
  msg.payload = network_.AcquirePayload();
  network_.PayloadBuffer(msg.payload) = "12345";
  ASSERT_TRUE(network_.Send(std::move(msg)).ok());
  ASSERT_TRUE(network_.Send(Make("b", "a")).ok());
  ctx_.events().Run();
  EXPECT_EQ(network_.stats().messages_sent, 2u);
  EXPECT_EQ(network_.stats().messages_delivered, 2u);
  EXPECT_EQ(network_.stats().bytes_sent, 5u);
  EXPECT_EQ(network_.stats().bytes_delivered, 5u);
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].payload, "12345");
  EXPECT_EQ(network_.SentBy("a"), 1u);
  EXPECT_EQ(network_.SentBy("b"), 1u);
  EXPECT_EQ(network_.SentBy("ghost"), 0u);
}

TEST_F(NetworkTest, DroppedBytesCountedSentButNotDelivered) {
  b_.up = false;
  Message msg = Make("a", "b");
  msg.payload = network_.AcquirePayload();
  network_.PayloadBuffer(msg.payload) = "123";
  ASSERT_TRUE(network_.Send(std::move(msg)).ok());
  ctx_.events().Run();
  EXPECT_EQ(network_.stats().bytes_sent, 3u);
  EXPECT_EQ(network_.stats().bytes_delivered, 0u);
}

TEST_F(NetworkTest, TraceRecordsSendAndReceive) {
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  EXPECT_EQ(ctx_.trace().Count(sim::TraceKind::kSend, "a"), 1u);
  EXPECT_EQ(ctx_.trace().Count(sim::TraceKind::kReceive, "b"), 1u);
}

TEST_F(NetworkTest, TracingCanBeDisabled) {
  network_.set_tracing(false);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  EXPECT_EQ(ctx_.trace().Count(sim::TraceKind::kSend), 0u);
}

// --- in-flight link-flap semantics (pinned by src/net/network.h) ------------

TEST_F(NetworkTest, InFlightMessageDueDuringOutageIsDroppedRetroactively) {
  // Sent while the link was up, delivery falls inside the outage window:
  // the outage destroys it, as a real line failure would.
  network_.SetLinkLatency("a", "b", 10 * sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().ScheduleAt(5 * sim::kMillisecond,
                           [this] { network_.SetLinkDown("a", "b", true); });
  ctx_.events().Run();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(network_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, InFlightMessageDueAfterRecoveryIsDelivered) {
  // The outage opens and closes entirely before the delivery instant: the
  // message was neither on the wire during the outage (queued at the
  // sender) nor due during it, so it arrives.
  network_.SetLinkLatency("a", "b", 20 * sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().ScheduleAt(2 * sim::kMillisecond,
                           [this] { network_.SetLinkDown("a", "b", true); });
  ctx_.events().ScheduleAt(8 * sim::kMillisecond,
                           [this] { network_.SetLinkDown("a", "b", false); });
  ctx_.events().Run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(b_.received[0].at, 20 * sim::kMillisecond);
}

TEST_F(NetworkTest, FlapPreservesSessionOrderAcrossSurvivors) {
  // One message dropped by the outage must not reorder the survivors.
  network_.SetLinkLatency("a", "b", 10 * sim::kMillisecond);
  ASSERT_TRUE(network_.Send(Make("a", "b", "FIRST")).ok());  // due 10ms: drop
  ctx_.events().ScheduleAt(5 * sim::kMillisecond,
                           [this] { network_.SetLinkDown("a", "b", true); });
  ctx_.events().ScheduleAt(15 * sim::kMillisecond, [this] {
    network_.SetLinkDown("a", "b", false);
    ASSERT_TRUE(network_.Send(Make("a", "b", "SECOND")).ok());
    ASSERT_TRUE(network_.Send(Make("a", "b", "THIRD")).ok());
  });
  ctx_.events().Run();
  ASSERT_EQ(b_.received.size(), 2u);
  EXPECT_EQ(b_.received[0].tag, "SECOND");
  EXPECT_EQ(b_.received[1].tag, "THIRD");
  EXPECT_LE(b_.received[0].at, b_.received[1].at);
}

// --- probabilistic loss -----------------------------------------------------

TEST_F(NetworkTest, LossRateZeroAndOneAreExact) {
  network_.SetLinkLossRate("a", "b", 0.0);
  ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  EXPECT_EQ(b_.received.size(), 1u);

  network_.SetLinkLossRate("a", "b", 1.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(network_.Send(Make("a", "b")).ok());
  ctx_.events().Run();
  EXPECT_EQ(b_.received.size(), 1u);  // nothing further arrived
  EXPECT_EQ(network_.stats().messages_dropped, 10u);
}

TEST_F(NetworkTest, LossAppliesToBothDirections) {
  network_.SetLinkLossRate("a", "b", 1.0);
  EXPECT_DOUBLE_EQ(network_.LinkLossRate("b", "a"), 1.0);
  ASSERT_TRUE(network_.Send(Make("b", "a")).ok());
  ctx_.events().Run();
  EXPECT_TRUE(a_.received.empty());
}

TEST(NetworkLossDeterminism, SameSeedSameDropPattern) {
  auto run = [](uint64_t seed) {
    sim::SimContext ctx(seed);
    Network network(&ctx);
    RecordingEndpoint a(&ctx, &network), b(&ctx, &network);
    network.Register("a", &a);
    network.Register("b", &b);
    network.SetLinkLossRate("a", "b", 0.5);
    for (int i = 0; i < 64; ++i) {
      Message msg;
      msg.from = network.InternId("a");
      msg.to = network.InternId("b");
      msg.trace_tag = "N";
      msg.txn = static_cast<uint64_t>(i) + 1;
      EXPECT_TRUE(network.Send(std::move(msg)).ok());
    }
    ctx.events().Run();
    std::vector<uint64_t> delivered;
    for (const auto& d : b.received) delivered.push_back(d.at);
    return delivered;
  };
  const auto first = run(7);
  const auto second = run(7);
  const auto other = run(8);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.size(), 64u);  // some were actually dropped
  EXPECT_NE(first, other);       // and the pattern is seed-dependent
}

}  // namespace
}  // namespace tpc::net
