#include <gtest/gtest.h>

#include "net/fault.h"
#include "net/reliable.h"
#include "net/sim.h"
#include "serialize/framing.h"
#include "net/tcp.h"
#include "serialize/encoder.h"

namespace webdis::net {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

// -- SimNetwork -------------------------------------------------------------------

struct Received {
  Endpoint from;
  MessageType type;
  std::vector<uint8_t> payload;
};

TEST(SimNetworkTest, DeliversToListener) {
  SimNetwork net;
  std::vector<Received> received;
  ASSERT_TRUE(net.Listen({"b", 1}, [&](const Endpoint& from,
                                       MessageType type,
                                       const std::vector<uint8_t>& payload) {
                    received.push_back({from, type, payload});
                  })
                  .ok());
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1, 2}))
          .ok());
  net.RunUntilIdle();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from.host, "a");
  EXPECT_EQ(received[0].type, MessageType::kWebQuery);
  EXPECT_EQ(received[0].payload, Bytes({1, 2}));
}

TEST(SimNetworkTest, ConnectionRefusedWithoutListener) {
  SimNetwork net;
  const Status s =
      net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({1}));
  EXPECT_EQ(s.code(), StatusCode::kConnectionRefused);
  EXPECT_EQ(net.connection_refused_count(), 1u);
  EXPECT_EQ(net.total_traffic().messages, 0u);  // nothing metered
}

TEST(SimNetworkTest, DuplicateBindRejected) {
  SimNetwork net;
  auto handler = [](const Endpoint&, MessageType,
                    const std::vector<uint8_t>&) {};
  ASSERT_TRUE(net.Listen({"b", 1}, handler).ok());
  EXPECT_FALSE(net.Listen({"b", 1}, handler).ok());
}

TEST(SimNetworkTest, CloseListenerRefusesAndDropsInFlight) {
  SimNetwork net;
  int delivered = 0;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>&) { ++delivered; })
                  .ok());
  // Accepted, then the listener closes while in flight.
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({1})).ok());
  net.CloseListener({"b", 1});
  net.RunUntilIdle();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.dropped_count(), 1u);
  // And new sends are refused.
  EXPECT_EQ(net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({1}))
                .code(),
            StatusCode::kConnectionRefused);
}

TEST(SimNetworkTest, TimeAdvancesByLatencyAndBandwidth) {
  SimNetworkOptions options;
  options.inter_host_latency = 10 * kMillisecond;
  options.same_host_latency = 1 * kMillisecond;
  options.bandwidth_bytes_per_sec = 1000;  // 1 byte per ms
  SimNetwork net(options);
  ASSERT_TRUE(net.Listen({"b", 1}, [](const Endpoint&, MessageType,
                                      const std::vector<uint8_t>&) {})
                  .ok());
  const std::vector<uint8_t> payload(100 - serialize::kFrameHeaderSize, 7);
  ASSERT_TRUE(net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, payload)
                  .ok());
  net.RunUntilIdle();
  // 10ms latency + 100 bytes at 1 byte/ms = 110 ms.
  EXPECT_EQ(net.now(), 110 * kMillisecond);
}

TEST(SimNetworkTest, SameHostCheaperThanInterHost) {
  SimNetwork net;
  ASSERT_TRUE(net.Listen({"a", 1}, [](const Endpoint&, MessageType,
                                      const std::vector<uint8_t>&) {})
                  .ok());
  ASSERT_TRUE(
      net.Send({"a", 2}, {"a", 1}, MessageType::kReport, Bytes({1})).ok());
  net.RunUntilIdle();
  const SimTime local_time = net.now();
  EXPECT_EQ(net.inter_host_traffic().messages, 0u);
  EXPECT_EQ(net.total_traffic().messages, 1u);
  EXPECT_LT(local_time, SimNetworkOptions().inter_host_latency);
}

TEST(SimNetworkTest, DeterministicFifoForEqualTimestamps) {
  SimNetwork net;
  std::vector<int> order;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>& p) {
                           order.push_back(p[0]);
                         })
                  .ok());
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({i})).ok());
  }
  net.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimNetworkTest, SmallerMessagesOvertakeLargerOnes) {
  // The reordering hazard the robust CHT defends against: a later small
  // message arrives before an earlier large one.
  SimNetworkOptions options;
  options.bandwidth_bytes_per_sec = 1000;
  SimNetwork net(options);
  std::vector<std::string> order;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>& p) {
                           order.push_back(p.size() > 100 ? "big" : "small");
                         })
                  .ok());
  ASSERT_TRUE(net.Send({"a", 2}, {"b", 1}, MessageType::kReport,
                       std::vector<uint8_t>(1000, 1))
                  .ok());
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({1})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"small", "big"}));
}

TEST(SimNetworkTest, ServiceTimeSerializesPerListener) {
  SimNetworkOptions options;
  options.inter_host_latency = 10 * kMillisecond;
  options.bandwidth_bytes_per_sec = 0;
  options.service_time = [](const Endpoint&, MessageType,
                            size_t) -> SimDuration {
    return 50 * kMillisecond;
  };
  SimNetwork net(options);
  std::vector<SimTime> deliveries_b;
  std::vector<SimTime> deliveries_c;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>&) {
                           deliveries_b.push_back(net.now());
                         })
                  .ok());
  ASSERT_TRUE(net.Listen({"c", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>&) {
                           deliveries_c.push_back(net.now());
                         })
                  .ok());
  // Three messages to b (serialized) and one to c (parallel endpoint).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        net.Send({"a", 1}, {"b", 1}, MessageType::kWebQuery, {}).ok());
  }
  ASSERT_TRUE(net.Send({"a", 1}, {"c", 1}, MessageType::kWebQuery, {}).ok());
  net.RunUntilIdle();
  // b: arrivals at 10ms, queueing: done at 60, 110, 160 ms.
  ASSERT_EQ(deliveries_b.size(), 3u);
  EXPECT_EQ(deliveries_b[0], 60 * kMillisecond);
  EXPECT_EQ(deliveries_b[1], 110 * kMillisecond);
  EXPECT_EQ(deliveries_b[2], 160 * kMillisecond);
  // c is an independent queue: done at 60 ms despite b's backlog.
  ASSERT_EQ(deliveries_c.size(), 1u);
  EXPECT_EQ(deliveries_c[0], 60 * kMillisecond);
}

TEST(SimNetworkTest, HostExtraLatencyDelaysBothDirections) {
  SimNetworkOptions options;
  options.inter_host_latency = 10 * kMillisecond;
  options.bandwidth_bytes_per_sec = 0;  // pure latency
  SimNetwork net(options);
  auto handler = [](const Endpoint&, MessageType,
                    const std::vector<uint8_t>&) {};
  ASSERT_TRUE(net.Listen({"slow", 1}, handler).ok());
  ASSERT_TRUE(net.Listen({"fast", 1}, handler).ok());
  net.SetHostExtraLatency("slow", 100 * kMillisecond);

  ASSERT_TRUE(net.Send({"a", 1}, {"fast", 1}, MessageType::kReport, {}).ok());
  net.RunUntilIdle();
  EXPECT_EQ(net.now(), 10 * kMillisecond);
  ASSERT_TRUE(net.Send({"a", 1}, {"slow", 1}, MessageType::kReport, {}).ok());
  net.RunUntilIdle();
  EXPECT_EQ(net.now(), 10 * kMillisecond + 110 * kMillisecond);
  // From the slow host is just as slow.
  ASSERT_TRUE(
      net.Send({"slow", 2}, {"fast", 1}, MessageType::kReport, {}).ok());
  net.RunUntilIdle();
  EXPECT_EQ(net.now(), 120 * kMillisecond + 110 * kMillisecond);
}

TEST(SimNetworkTest, KillHostClosesAllItsListeners) {
  SimNetwork net;
  auto handler = [](const Endpoint&, MessageType,
                    const std::vector<uint8_t>&) {};
  ASSERT_TRUE(net.Listen({"b", 1}, handler).ok());
  ASSERT_TRUE(net.Listen({"b", 2}, handler).ok());
  ASSERT_TRUE(net.Listen({"c", 1}, handler).ok());
  net.KillHost("b");
  EXPECT_EQ(net.Send({"a", 1}, {"b", 1}, MessageType::kReport, {}).code(),
            StatusCode::kConnectionRefused);
  EXPECT_EQ(net.Send({"a", 1}, {"b", 2}, MessageType::kReport, {}).code(),
            StatusCode::kConnectionRefused);
  EXPECT_TRUE(net.Send({"a", 1}, {"c", 1}, MessageType::kReport, {}).ok());
}

TEST(SimNetworkTest, HandlersMaySendMore) {
  SimNetwork net;
  int hops = 0;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>& p) {
                           ++hops;
                           if (p[0] > 0) {
                             ASSERT_TRUE(net.Send({"b", 1}, {"b", 1},
                                                  MessageType::kReport,
                                                  Bytes({static_cast<uint8_t>(
                                                      p[0] - 1)}))
                                             .ok());
                           }
                         })
                  .ok());
  ASSERT_TRUE(
      net.Send({"a", 1}, {"b", 1}, MessageType::kReport, Bytes({4})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(hops, 5);
}

TEST(SimNetworkTest, MetricsByTypeAndReset) {
  SimNetwork net;
  auto handler = [](const Endpoint&, MessageType,
                    const std::vector<uint8_t>&) {};
  ASSERT_TRUE(net.Listen({"b", 1}, handler).ok());
  ASSERT_TRUE(net.Send({"a", 1}, {"b", 1}, MessageType::kWebQuery,
                       Bytes({1, 2, 3}))
                  .ok());
  ASSERT_TRUE(
      net.Send({"a", 1}, {"b", 1}, MessageType::kReport, Bytes({1})).ok());
  EXPECT_EQ(net.traffic_for(MessageType::kWebQuery).messages, 1u);
  EXPECT_EQ(net.traffic_for(MessageType::kWebQuery).bytes,
            3 + serialize::kFrameHeaderSize);
  EXPECT_EQ(net.traffic_for(MessageType::kReport).messages, 1u);
  EXPECT_EQ(net.traffic_for(MessageType::kTerminate).messages, 0u);
  EXPECT_EQ(net.total_traffic().messages, 2u);
  net.ResetMetrics();
  EXPECT_EQ(net.total_traffic().messages, 0u);
  EXPECT_EQ(net.traffic_for(MessageType::kWebQuery).messages, 0u);
}

// -- TcpTransport --------------------------------------------------------------------

TEST(TcpTransportTest, LocalhostRoundTrip) {
  TcpTransport tcp;
  std::vector<Received> received;
  const Endpoint server{"serverhost", 39251};
  ASSERT_TRUE(tcp.Listen(server, [&](const Endpoint& from, MessageType type,
                                     const std::vector<uint8_t>& payload) {
                    received.push_back({from, type, payload});
                  })
                  .ok());
  const Endpoint client{"clienthost", 39252};
  ASSERT_TRUE(
      tcp.Send(client, server, MessageType::kWebQuery, Bytes({9, 8, 7}))
          .ok());
  tcp.PumpUntilIdle(100);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from.host, "clienthost");
  EXPECT_EQ(received[0].from.port, 39252);
  EXPECT_EQ(received[0].type, MessageType::kWebQuery);
  EXPECT_EQ(received[0].payload, Bytes({9, 8, 7}));
  tcp.CloseListener(server);
}

TEST(TcpTransportTest, ConnectionRefusedAfterClose) {
  TcpTransport tcp;
  const Endpoint server{"s", 39253};
  ASSERT_TRUE(tcp.Listen(server, [](const Endpoint&, MessageType,
                                    const std::vector<uint8_t>&) {})
                  .ok());
  tcp.CloseListener(server);
  const Status s =
      tcp.Send({"c", 39254}, server, MessageType::kReport, Bytes({1}));
  EXPECT_EQ(s.code(), StatusCode::kConnectionRefused);
}

TEST(TcpTransportTest, LargePayloadSurvivesFragmentation) {
  // 1 MiB payload crosses many read() chunks; the frame reassembles.
  TcpTransport tcp;
  std::vector<uint8_t> received;
  const Endpoint server{"bigserver", 1};
  ASSERT_TRUE(tcp.Listen(server, [&](const Endpoint&, MessageType,
                                     const std::vector<uint8_t>& payload) {
                    received = payload;
                  })
                  .ok());
  std::vector<uint8_t> payload(1 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE(
      tcp.Send({"c", 1}, server, MessageType::kReport, payload).ok());
  tcp.PumpUntilIdle(200);
  EXPECT_EQ(received, payload);
  tcp.CloseListener(server);
}

TEST(TcpTransportTest, MultipleMessagesAndListeners) {
  TcpTransport tcp;
  int a_count = 0, b_count = 0;
  ASSERT_TRUE(tcp.Listen({"a", 39255},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>&) { ++a_count; })
                  .ok());
  ASSERT_TRUE(tcp.Listen({"b", 39256},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>&) { ++b_count; })
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tcp.Send({"c", 1}, {"a", 39255}, MessageType::kReport,
                         Bytes({static_cast<uint8_t>(i)}))
                    .ok());
  }
  ASSERT_TRUE(
      tcp.Send({"c", 1}, {"b", 39256}, MessageType::kReport, Bytes({1}))
          .ok());
  tcp.PumpUntilIdle(100);
  EXPECT_EQ(a_count, 5);
  EXPECT_EQ(b_count, 1);
}

// -- Timers -----------------------------------------------------------------

TEST(SimNetworkTest, TimersShareTheEventQueueAndAdvanceTheClock) {
  SimNetwork net;
  std::vector<int> fired;
  net.ScheduleAfter(5 * kMillisecond, [&] { fired.push_back(2); });
  net.ScheduleAfter(1 * kMillisecond, [&] { fired.push_back(1); });
  const uint64_t cancelled =
      net.ScheduleAfter(3 * kMillisecond, [&] { fired.push_back(99); });
  EXPECT_TRUE(net.CancelTimer(cancelled));
  EXPECT_FALSE(net.CancelTimer(cancelled));  // already gone
  net.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(net.now(), 5 * kMillisecond);
}

TEST(SimNetworkTest, TimerHandlersMaySendAndReschedule) {
  SimNetwork net;
  int received = 0;
  ASSERT_TRUE(net.Listen({"b", 1}, [&](const Endpoint&, MessageType,
                                       const std::vector<uint8_t>&) {
                    ++received;
                  })
                  .ok());
  net.ScheduleAfter(1 * kMillisecond, [&] {
    ASSERT_TRUE(
        net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1})).ok());
    net.ScheduleAfter(1 * kMillisecond, [&] {
      ASSERT_TRUE(net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({2}))
                      .ok());
    });
  });
  net.RunUntilIdle();
  EXPECT_EQ(received, 2);
}

// -- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, TypeScopedDropOnlyAffectsThatType) {
  SimNetwork net;
  std::vector<MessageType> received;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType type,
                             const std::vector<uint8_t>&) {
                           received.push_back(type);
                         })
                  .ok());
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.type = MessageType::kReport;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({1})).ok());
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({2})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(received, (std::vector<MessageType>{MessageType::kWebQuery}));
  EXPECT_EQ(plan.stats().dropped, 1u);
  EXPECT_EQ(net.dropped_count(), 1u);
}

TEST(FaultPlanTest, CountPhaseWindowDropsExactlyTheThird) {
  SimNetwork net;
  std::vector<uint8_t> received;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint&, MessageType,
                             const std::vector<uint8_t>& payload) {
                           received.push_back(payload[0]);
                         })
                  .ok());
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.skip_first = 2;
  rule.max_faults = 1;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  for (uint8_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({i})).ok());
    net.RunUntilIdle();
  }
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 4, 5}));
  EXPECT_EQ(plan.stats().dropped, 1u);
}

TEST(FaultPlanTest, DuplicationDeliversExtraCopies) {
  SimNetwork net;
  int received = 0;
  ASSERT_TRUE(net.Listen({"b", 1}, [&](const Endpoint&, MessageType,
                                       const std::vector<uint8_t>&) {
                    ++received;
                  })
                  .ok());
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.duplicate_prob = 1.0;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(received, 2);  // original + one duplicate
  EXPECT_EQ(plan.stats().duplicated, 1u);
}

TEST(FaultPlanTest, DelayRulePostponesDelivery) {
  SimNetworkOptions options;
  options.same_host_latency = 0;
  options.inter_host_latency = 1 * kMillisecond;
  options.bandwidth_bytes_per_sec = 1'000'000'000;
  SimNetwork net(options);
  ASSERT_TRUE(net.Listen({"b", 1}, [](const Endpoint&, MessageType,
                                      const std::vector<uint8_t>&) {})
                  .ok());
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.delay_prob = 1.0;
  rule.delay = 7 * kMillisecond;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(net.now(), 8 * kMillisecond);  // latency + injected delay
  EXPECT_EQ(plan.stats().delayed, 1u);
}

TEST(FaultPlanTest, PartitionCutsBothDirectionsUntilHealed) {
  SimNetwork net;
  int received = 0;
  auto count = [&](const Endpoint&, MessageType,
                   const std::vector<uint8_t>&) { ++received; };
  ASSERT_TRUE(net.Listen({"a", 1}, count).ok());
  ASSERT_TRUE(net.Listen({"b", 1}, count).ok());
  FaultPlan plan;
  plan.Partition("a", "b");
  EXPECT_TRUE(plan.Partitioned("a", "b"));
  EXPECT_TRUE(plan.Partitioned("b", "a"));
  net.SetFaultPlan(&plan);
  ASSERT_TRUE(
      net.Send({"a", 1}, {"b", 1}, MessageType::kWebQuery, Bytes({1})).ok());
  ASSERT_TRUE(
      net.Send({"b", 1}, {"a", 1}, MessageType::kReport, Bytes({2})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(plan.stats().partition_drops, 2u);

  plan.Heal("a", "b");
  EXPECT_FALSE(plan.Partitioned("a", "b"));
  ASSERT_TRUE(
      net.Send({"a", 1}, {"b", 1}, MessageType::kWebQuery, Bytes({3})).ok());
  net.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST(FaultPlanTest, TimeWindowScopesRule) {
  SimNetwork net;
  int received = 0;
  ASSERT_TRUE(net.Listen({"b", 1}, [&](const Endpoint&, MessageType,
                                       const std::vector<uint8_t>&) {
                    ++received;
                  })
                  .ok());
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.active_from = 10 * kMillisecond;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  // Before the window: delivered.
  ASSERT_TRUE(
      net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1})).ok());
  // A timer moves the clock into the window; the send from there is dropped.
  net.ScheduleAfter(15 * kMillisecond, [&] {
    ASSERT_TRUE(
        net.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({2})).ok());
  });
  net.RunUntilIdle();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(plan.stats().dropped, 1u);
}

// -- At-least-once delivery --------------------------------------------------

TEST(ReliableDeliveryTest, RetransmitsUntilAckedAndStripsEnvelope) {
  SimNetwork net;
  FaultPlan plan;
  FaultPlan::Rule lose_first;
  lose_first.type = MessageType::kWebQuery;
  lose_first.max_faults = 1;
  lose_first.drop_prob = 1.0;
  plan.AddRule(lose_first);
  net.SetFaultPlan(&plan);

  RetryOptions options;
  options.enabled = true;
  // Above the simulated ack round-trip, so only real losses retransmit.
  options.initial_timeout = 100 * kMillisecond;
  ReliableSender sender(&net, options);
  ReliableReceiver receiver(&net, /*enabled=*/true);

  std::vector<std::vector<uint8_t>> processed;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint& from, MessageType,
                             const std::vector<uint8_t>& payload) {
                           std::vector<uint8_t> inner;
                           if (receiver.Accept({"b", 1}, from, payload,
                                               &inner)) {
                             processed.push_back(inner);
                           }
                         })
                  .ok());
  ASSERT_TRUE(net.Listen({"a", 2},
                         [&](const Endpoint&, MessageType type,
                             const std::vector<uint8_t>& payload) {
                           if (type == MessageType::kDeliveryAck) {
                             sender.OnAck(payload);
                           }
                         })
                  .ok());

  ASSERT_TRUE(
      sender.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({9}))
          .ok());
  net.RunUntilIdle();
  ASSERT_EQ(processed.size(), 1u);
  EXPECT_EQ(processed[0], Bytes({9}));  // envelope stripped
  EXPECT_EQ(sender.stats().retries, 1u);
  EXPECT_EQ(sender.stats().acked, 1u);
  EXPECT_EQ(sender.pending_count(), 0u);

  // A duplicated transfer is acked again but processed only once.
  plan.HealAll();
  FaultPlan::Rule duplicate;
  duplicate.type = MessageType::kWebQuery;
  duplicate.duplicate_prob = 1.0;
  plan.AddRule(duplicate);
  ASSERT_TRUE(
      sender.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({7}))
          .ok());
  net.RunUntilIdle();
  ASSERT_EQ(processed.size(), 2u);
  EXPECT_EQ(processed[1], Bytes({7}));
  EXPECT_EQ(receiver.suppressed_count(), 1u);
  EXPECT_EQ(sender.stats().duplicate_acks, 1u);
}

TEST(ReliableDeliveryTest, OverloadBackoffGrowsJitteredAndCapHolds) {
  // A persistently overloaded receiver NACKs every copy (PROTOCOL.md §7.2):
  // the transfer must move to the overload backoff class, grow its interval
  // per NACK, and never exceed overload_max_timeout — the cap is applied
  // after jitter, so it is a hard bound even under unbounded NACK streams.
  SimNetwork net;
  RetryOptions options;
  options.enabled = true;
  options.initial_timeout = 50 * kMillisecond;
  options.max_attempts = 10;
  options.overload_initial_timeout = 200 * kMillisecond;
  options.overload_backoff_factor = 2.0;
  options.overload_max_timeout = 1 * kSecond;
  options.overload_jitter = 0.5;
  options.jitter_seed = 42;
  ReliableSender sender(&net, options);
  ReliableReceiver receiver(&net, /*enabled=*/true);

  std::vector<SimTime> arrivals;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint& from, MessageType,
                             const std::vector<uint8_t>& payload) {
                           uint64_t seq = 0;
                           if (!ReliableReceiver::PeekSeq(payload, &seq)) {
                             return;
                           }
                           arrivals.push_back(net.now());
                           receiver.SendOverloaded({"b", 1}, from, seq);
                         })
                  .ok());
  int overload_events = 0;
  sender.set_delivery_observer([&](const Endpoint&, DeliveryEvent event) {
    if (event == DeliveryEvent::kOverloadNack) ++overload_events;
  });
  ASSERT_TRUE(net.Listen({"a", 2},
                         [&](const Endpoint&, MessageType type,
                             const std::vector<uint8_t>& payload) {
                           if (type == MessageType::kOverloaded) {
                             sender.OnOverloaded(payload);
                           }
                         })
                  .ok());

  ASSERT_TRUE(
      sender.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1}))
          .ok());
  net.RunUntilIdle();

  // Every attempt arrived, was NACKed, and the transfer finally exhausted
  // (resends still count against max_attempts; the NACKs themselves don't).
  ASSERT_EQ(arrivals.size(), options.max_attempts);
  EXPECT_EQ(sender.stats().overload_nacks, options.max_attempts);
  EXPECT_EQ(overload_events, static_cast<int>(options.max_attempts));
  EXPECT_EQ(sender.stats().exhausted, 1u);
  EXPECT_EQ(sender.pending_count(), 0u);

  // Inter-send gaps = NACK round-trip + jittered overload interval. With
  // jitter 0.5 the factor lies in [0.75, 1.25], so even the first overload
  // gap clears the loss-recovery schedule, and growth hits the hard cap by
  // the 4th NACK (1600ms * 0.75 > cap): the late gaps are exactly equal.
  const SimDuration rtt_slack = 2 * 25 * kMillisecond;
  std::vector<SimDuration> gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i] - arrivals[i - 1]);
  }
  EXPECT_GE(gaps.front(),
            static_cast<SimDuration>(0.75 * options.overload_initial_timeout));
  for (const SimDuration gap : gaps) {
    EXPECT_LE(gap, options.overload_max_timeout + rtt_slack);
  }
  for (size_t i = 4; i < gaps.size(); ++i) {
    EXPECT_EQ(gaps[i], gaps[4]);  // pinned at the cap
    EXPECT_GE(gaps[i], options.overload_max_timeout);
  }
}

TEST(ReliableDeliveryTest, SiteRetiredNackIsTerminalNoFurtherRetransmission) {
  // Unlike kOverloaded ("try again later"), kSiteRetired (PROTOCOL.md
  // §10.2) is terminal: one NACK must erase the pending transfer, cancel
  // its retry timer, and surface DeliveryEvent::kSiteRetired — the
  // destination is gone for good, so any further retransmission is futile.
  SimNetwork net;
  RetryOptions options;
  options.enabled = true;
  options.initial_timeout = 50 * kMillisecond;
  options.max_attempts = 10;
  ReliableSender sender(&net, options);
  ReliableReceiver receiver(&net, /*enabled=*/true);

  int arrivals = 0;
  ASSERT_TRUE(net.Listen({"b", 1},
                         [&](const Endpoint& from, MessageType,
                             const std::vector<uint8_t>& payload) {
                           uint64_t seq = 0;
                           if (!ReliableReceiver::PeekSeq(payload, &seq)) {
                             return;
                           }
                           ++arrivals;
                           receiver.SendSiteRetired({"b", 1}, from, seq);
                         })
                  .ok());
  int retired_events = 0;
  sender.set_delivery_observer([&](const Endpoint&, DeliveryEvent event) {
    if (event == DeliveryEvent::kSiteRetired) ++retired_events;
  });
  ASSERT_TRUE(net.Listen({"a", 2},
                         [&](const Endpoint&, MessageType type,
                             const std::vector<uint8_t>& payload) {
                           if (type == MessageType::kSiteRetired) {
                             sender.OnSiteRetired(payload);
                           }
                         })
                  .ok());

  ASSERT_TRUE(
      sender.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1}))
          .ok());
  net.RunUntilIdle();

  // Exactly one copy ever reached the wire: the first NACK killed the
  // transfer despite the generous attempt budget.
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(retired_events, 1);
  EXPECT_EQ(sender.stats().site_retired, 1u);
  EXPECT_EQ(sender.stats().retries, 0u);
  EXPECT_EQ(sender.stats().exhausted, 0u);
  EXPECT_EQ(sender.pending_count(), 0u);

  // A duplicate NACK for the same (now unknown) seq is a no-op, mirroring
  // OnAck's tolerance of duplicate receipts.
  serialize::Encoder enc;
  enc.PutU64(1);
  sender.OnSiteRetired(enc.data());
  EXPECT_EQ(sender.stats().site_retired, 1u);
}

TEST(FaultyTransportTest, DropSwallowsTheSendWithoutProbingAcceptance) {
  SimNetwork net;  // no listener anywhere
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.type = MessageType::kWebQuery;
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  FaultyTransport faulty(&net, &plan);
  // A dropped send cannot probe acceptance: it reports OK even though the
  // base transport would have refused synchronously.
  EXPECT_TRUE(
      faulty.Send({"a", 2}, {"b", 1}, MessageType::kWebQuery, Bytes({1}))
          .ok());
  EXPECT_EQ(plan.stats().dropped, 1u);
  // Without the plan faulting, refusal passes through.
  const Status s =
      faulty.Send({"a", 2}, {"b", 1}, MessageType::kReport, Bytes({2}));
  EXPECT_EQ(s.code(), StatusCode::kConnectionRefused);
}

}  // namespace
}  // namespace webdis::net
