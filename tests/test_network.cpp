#include <gtest/gtest.h>

#include "machine/network.hpp"

namespace concert {
namespace {

Message mk(NodeId src, NodeId dst, int tag) {
  Message m = Message::invoke(src, dst, static_cast<MethodId>(tag), kNoObject, {}, {});
  return m;
}

TEST(SimNetwork, DeliversAfterLatency) {
  const CostModel costs = CostModel::workstation();
  SimNetwork net(2, costs);
  net.inject(mk(0, 1, 1), /*sender_clock=*/1000);
  ASSERT_FALSE(net.empty_for(1));
  EXPECT_GE(net.earliest_for(1), 1000 + costs.wire_latency);
  const Message m = net.pop_for(1);
  EXPECT_EQ(m.method, 1u);
  EXPECT_TRUE(net.empty_for(1));
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, KeepsItsOwnCostModel) {
  // The network copies the cost model it is built with: changing (or
  // destroying) the caller's object afterwards must not move delivery times.
  CostModel costs = CostModel::workstation();
  const std::uint64_t latency = costs.wire_latency;
  SimNetwork net(2, costs);
  costs.wire_latency = 1000000;
  net.inject(mk(0, 1, 1), /*sender_clock=*/1000);
  EXPECT_GE(net.earliest_for(1), 1000 + latency);
  EXPECT_LT(net.earliest_for(1), 1000 + costs.wire_latency);
}

TEST(SimNetwork, FifoPerChannelEvenWithClockSkew) {
  SimNetwork net(2, CostModel::workstation());
  // Second message sent "earlier" on the sender clock (can't happen for a
  // single sender, but FIFO must clamp regardless of serialization effects).
  Message big = mk(0, 1, 1);
  big.args.assign(100, Value{1});  // long message -> late delivery
  net.inject(std::move(big), 100);
  net.inject(mk(0, 1, 2), 101);  // short message right behind it
  const Message first = net.pop_for(1);
  const Message second = net.pop_for(1);
  EXPECT_EQ(first.method, 1u);
  EXPECT_EQ(second.method, 2u);
  EXPECT_LE(first.deliver_at, second.deliver_at);
}

TEST(SimNetwork, IndependentChannelsDontBlock) {
  SimNetwork net(3, CostModel::workstation());
  Message slow = mk(0, 2, 1);
  slow.args.assign(1000, Value{1});
  net.inject(std::move(slow), 0);
  net.inject(mk(1, 2, 2), 0);
  // The message from node 1 may overtake node 0's long message.
  EXPECT_EQ(net.pop_for(2).method, 2u);
}

TEST(SimNetwork, EarliestReflectsMinimum) {
  SimNetwork net(2, CostModel::workstation());
  net.inject(mk(0, 1, 1), 5000);
  net.inject(mk(0, 1, 2), 100);
  // FIFO: the second can't be delivered before the first on the same channel.
  EXPECT_EQ(net.pop_for(1).method, 1u);
}

TEST(SimNetwork, DeterministicTieBreakBySeq) {
  SimNetwork net(3, CostModel::workstation());
  // Same timestamps from two different sources: pop order must be injection
  // order (seq tie-break), deterministically.
  net.inject(mk(0, 2, 10), 500);
  net.inject(mk(1, 2, 20), 500);
  EXPECT_EQ(net.pop_for(2).method, 10u);
  EXPECT_EQ(net.pop_for(2).method, 20u);
}

TEST(SimNetwork, SeqTieBreakHoldsAcrossManySources) {
  // Regression for the heap rework: a large batch of messages with identical
  // deliver_at timestamps from rotating sources must pop in injection (seq)
  // order — the (deliver_at, seq) key is a unique total order, so pop order
  // must not depend on heap internals.
  SimNetwork net(5, CostModel::workstation());
  for (int tag = 0; tag < 32; ++tag) net.inject(mk(static_cast<NodeId>(tag % 4), 4, tag), 250);
  for (int tag = 0; tag < 32; ++tag) {
    EXPECT_EQ(net.pop_for(4).method, static_cast<MethodId>(tag)) << "at pop " << tag;
  }
  EXPECT_TRUE(net.empty_for(4));
}

TEST(SimNetwork, PerChannelFifoWithInterleavedSources) {
  // Two sources interleave sends to one destination with different payload
  // sizes (hence different latencies). Global pop order may interleave, but
  // within each (src, dst) channel the injection order must be preserved.
  SimNetwork net(3, CostModel::workstation());
  int tag = 0;
  for (int round = 0; round < 8; ++round) {
    for (NodeId src : {NodeId{0}, NodeId{1}}) {
      Message m = mk(src, 2, tag++);
      if (round % 3 == 0) m.args.assign(64, Value{1});  // occasional long message
      net.inject(std::move(m), static_cast<std::uint64_t>(round * 10));
    }
  }
  int last_from_0 = -1, last_from_1 = -1;
  while (!net.empty_for(2)) {
    const Message m = net.pop_for(2);
    int& last = m.src == 0 ? last_from_0 : last_from_1;
    EXPECT_LT(last, static_cast<int>(m.method)) << "FIFO violated on channel from " << m.src;
    last = static_cast<int>(m.method);
  }
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, PopMovesPayloadIntact) {
  // pop_for moves the message out of the heap (no copy); the payload must
  // arrive complete regardless of where the heap stored it.
  SimNetwork net(2, CostModel::workstation());
  Message big = mk(0, 1, 7);
  for (int i = 0; i < 100; ++i) big.args.push_back(Value{i});
  net.inject(mk(0, 1, 6), 0);  // a second element so the heap actually swaps
  net.inject(std::move(big), 0);
  ASSERT_EQ(net.pop_for(1).method, 6u);
  const Message got = net.pop_for(1);
  ASSERT_EQ(got.method, 7u);
  ASSERT_EQ(got.args.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got.args[static_cast<std::size_t>(i)].as_i64(), i);
}

TEST(SimNetwork, InFlightCountsAllDestinations) {
  SimNetwork net(4, CostModel::workstation());
  net.inject(mk(0, 1, 1), 0);
  net.inject(mk(0, 2, 2), 0);
  net.inject(mk(3, 2, 3), 0);
  EXPECT_EQ(net.in_flight(), 3u);
  net.pop_for(1);
  EXPECT_EQ(net.in_flight(), 2u);
}

TEST(SimNetwork, RejectsBadNodes) {
  SimNetwork net(2, CostModel::workstation());
  EXPECT_THROW(net.inject(mk(0, 7, 1), 0), ProtocolError);
  EXPECT_THROW(net.pop_for(1), ProtocolError);
}

TEST(MessageTest, SizeGrowsWithArgs) {
  Message a = mk(0, 1, 1);
  Message b = mk(0, 1, 1);
  b.args.assign(10, Value{1});
  EXPECT_GT(b.size_bytes(), a.size_bytes());
  EXPECT_EQ(b.size_bytes() - a.size_bytes(), 10 * Value::wire_size());
}

TEST(MessageTest, ReplyCarriesValue) {
  const Continuation k{ContextRef{1, 2, 3}, 4, false};
  const Message r = Message::reply(0, 1, k, Value{99});
  EXPECT_EQ(r.kind, MsgKind::Reply);
  EXPECT_EQ(r.reply_to, k);
  ASSERT_EQ(r.args.size(), 1u);
  EXPECT_EQ(r.args[0].as_i64(), 99);
}

}  // namespace
}  // namespace concert
