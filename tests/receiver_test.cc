// Tests for the J-QoS receiver: ordered delivery, gap detection and NACKs,
// duplicate suppression, cooperative responses, in-stream self-decode,
// tail-loss timers, and the give-up accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "endpoint/receiver.h"
#include "fec/coded_batch.h"
#include "netsim/network.h"

namespace jqos::endpoint {
namespace {

// Captures everything the receiver sends toward DC2.
struct FakeDc final : netsim::Node {
  explicit FakeDc(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }

  std::vector<PacketPtr> of_type(PacketType t) const {
    std::vector<PacketPtr> out;
    for (const auto& p : received) {
      if (p->type == t) out.push_back(p);
    }
    return out;
  }

  NodeId id_;
  std::vector<PacketPtr> received;
};

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  FakeDc dc{net};
  std::vector<DeliveryRecord> records;
  std::unique_ptr<Receiver> receiver;

  explicit Fixture(ReceiverConfig config = {}) {
    config.dc2 = dc.id();
    if (config.rtt_estimate == msec(100)) config.rtt_estimate = msec(100);
    receiver = std::make_unique<Receiver>(
        net, config,
        [this](const DeliveryRecord& rec, const PacketPtr&) { records.push_back(rec); });
    net.add_link(receiver->id(), dc.id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    net.add_link(dc.id(), receiver->id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    receiver->expect_flow(1);
  }

  void arrive(SeqNo seq, PacketType type = PacketType::kData) {
    auto p = std::make_shared<Packet>();
    p->type = type;
    p->flow = 1;
    p->seq = seq;
    p->sent_at = sim.now();
    p->payload.assign(32, static_cast<std::uint8_t>(seq));
    receiver->handle_packet(p);
  }
};

TEST(Receiver, InOrderDelivery) {
  Fixture f;
  for (SeqNo s = 0; s < 5; ++s) f.arrive(s);
  ASSERT_EQ(f.records.size(), 5u);
  for (SeqNo s = 0; s < 5; ++s) {
    EXPECT_EQ(f.records[s].seq, s);
    EXPECT_FALSE(f.records[s].recovered);
  }
  EXPECT_EQ(f.receiver->stats().delivered_direct, 5u);
  EXPECT_EQ(f.receiver->stats().nacks_sent, 0u);
}

TEST(Receiver, GapTriggersImmediateNack) {
  Fixture f;
  f.arrive(0);
  f.arrive(3);  // Seqs 1, 2 missing.
  f.sim.run_until(msec(20));
  auto nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_EQ(nacks.size(), 1u);
  auto info = NackInfo::parse(nacks[0]->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->missing, (std::vector<SeqNo>{1, 2}));
  EXPECT_FALSE(info->tail);
  EXPECT_EQ(f.receiver->stats().losses_detected, 2u);
}

TEST(Receiver, LongOpenHoleNacksEachNewGapOnceInOrder) {
  // One hole (seq 1) stays open while two thousand later packets arrive
  // around smaller gaps. Each arrival only examines sequence numbers above
  // the previous evidence horizon, so every new gap is NACKed exactly once,
  // in order, and the open hole is never re-reported by an arrival.
  Fixture f;
  f.arrive(0);
  f.arrive(2);
  for (SeqNo s = 3; s < 2000; ++s) {
    if (s % 500 == 250 || s % 500 == 251) continue;  // {250, 251}, {750, 751}, ...
    f.arrive(s);
  }
  f.arrive(750);  // A straggler fills a tracked hole: nothing to NACK.
  f.arrive(2003);
  f.arrive(1, PacketType::kRecovered);  // The long hole closes at last.
  f.arrive(2005);
  f.sim.run_until(msec(20));

  const std::vector<std::vector<SeqNo>> want_missing = {
      {1}, {250, 251}, {750, 751}, {1250, 1251}, {1750, 1751}, {2000, 2001, 2002}, {2004}};
  const std::vector<SeqNo> want_expected = {1, 1, 1, 1, 1, 1, 250};
  const auto nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_EQ(nacks.size(), want_missing.size());
  for (std::size_t i = 0; i < nacks.size(); ++i) {
    SCOPED_TRACE("nack " + std::to_string(i));
    const auto info = NackInfo::parse(nacks[i]->payload);
    ASSERT_TRUE(info.has_value());
    EXPECT_FALSE(info->tail);
    EXPECT_EQ(info->missing, want_missing[i]);
    EXPECT_EQ(info->expected, want_expected[i]);
  }
  EXPECT_EQ(f.receiver->stats().losses_detected, 13u);
}

TEST(Receiver, RecoveredPacketFillsHole) {
  Fixture f;
  // Start past t=0 so detection timestamps are distinguishable from the
  // "never detected" sentinel.
  f.sim.run_until(msec(1));
  f.arrive(0);
  f.arrive(2);
  f.sim.run_until(msec(10));
  f.arrive(1, PacketType::kRecovered);
  ASSERT_EQ(f.records.size(), 3u);
  const auto& rec = f.records.back();
  EXPECT_EQ(rec.seq, 1u);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GT(rec.detected_missing_at, 0);
  EXPECT_EQ(f.receiver->stats().delivered_recovered, 1u);
  EXPECT_EQ(f.receiver->recovery_delay_ms().count(), 1u);
}

TEST(Receiver, LateDirectArrivalFillsHoleWithoutRecoveredFlag) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);
  f.arrive(1, PacketType::kData);  // Straggler direct packet.
  EXPECT_EQ(f.receiver->stats().delivered_direct, 3u);
  EXPECT_EQ(f.receiver->stats().delivered_recovered, 0u);
}

TEST(Receiver, DuplicatesSuppressed) {
  Fixture f;
  f.arrive(0);
  f.arrive(0);
  f.arrive(1);
  f.arrive(2);
  f.arrive(1, PacketType::kRecovered);  // Recovery raced the direct copy.
  EXPECT_EQ(f.receiver->stats().duplicates, 2u);
  // Three real deliveries plus one late-direct notification for the
  // duplicate direct copy of seq 0.
  std::size_t real = 0, late = 0;
  for (const auto& r : f.records) (r.late_direct ? late : real) += 1;
  EXPECT_EQ(real, 3u);
  EXPECT_EQ(late, 1u);
}

TEST(Receiver, CoopRequestAnsweredFromBuffer) {
  Fixture f;
  f.arrive(0);
  f.arrive(1);
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  CodedMeta m;
  m.batch_id = 77;
  req->meta = m;
  f.receiver->handle_packet(req);
  f.sim.run();
  auto resp = f.dc.of_type(PacketType::kCoopResponse);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0]->seq, 1u);
  ASSERT_TRUE(resp[0]->meta.has_value());
  EXPECT_EQ(resp[0]->meta->batch_id, 77u);
  EXPECT_EQ(resp[0]->payload.size(), 32u);
  EXPECT_EQ(f.receiver->stats().coop_responses_sent, 1u);
}

TEST(Receiver, CoopRequestForLostPacketIsMiss) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);  // Seq 1 was lost on the direct path.
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  f.receiver->handle_packet(req);
  f.sim.run_until(msec(10));
  EXPECT_TRUE(f.dc.of_type(PacketType::kCoopResponse).empty());
  EXPECT_EQ(f.receiver->stats().coop_misses, 1u);
}

TEST(Receiver, CoopRequestForFuturePacketDeferredUntilArrival) {
  // The requester's detection can race a slower direct path: a request for
  // a packet not seen yet is held and answered on arrival.
  Fixture f;
  f.arrive(0);
  auto req = std::make_shared<Packet>();
  req->type = PacketType::kCoopRequest;
  req->flow = 1;
  req->seq = 1;
  req->src = f.dc.id();
  f.receiver->handle_packet(req);
  f.sim.run_until(msec(10));
  EXPECT_TRUE(f.dc.of_type(PacketType::kCoopResponse).empty());
  EXPECT_EQ(f.receiver->stats().coop_misses, 0u);
  f.arrive(1);  // The packet lands: the deferred response goes out.
  f.sim.run_until(msec(30));
  ASSERT_EQ(f.dc.of_type(PacketType::kCoopResponse).size(), 1u);
  EXPECT_EQ(f.receiver->stats().coop_deferred, 1u);
}

TEST(Receiver, NackCheckConfirmedOnlyWhenMissing) {
  Fixture f;
  f.arrive(0);
  f.arrive(2);  // 1 missing.
  auto check = std::make_shared<Packet>();
  check->type = PacketType::kNackCheck;
  check->flow = 1;
  check->seq = 1;
  check->src = f.dc.id();
  f.receiver->handle_packet(check);
  f.sim.run();
  EXPECT_EQ(f.dc.of_type(PacketType::kNackConfirm).size(), 1u);

  // A check for a delivered seq stays silent.
  auto spurious = std::make_shared<Packet>(*check);
  spurious->seq = 0;
  f.receiver->handle_packet(spurious);
  f.sim.run();
  EXPECT_EQ(f.dc.of_type(PacketType::kNackConfirm).size(), 1u);
}

TEST(Receiver, SelfDecodesInStreamCodedPacket) {
  Fixture f;
  // Build the in-stream batch the encoder would have made for seqs 0-4.
  std::vector<PacketPtr> data;
  for (SeqNo s = 0; s < 5; ++s) {
    auto p = std::make_shared<Packet>();
    p->flow = 1;
    p->seq = s;
    p->payload.assign(32, static_cast<std::uint8_t>(s * 3));
    data.push_back(p);
  }
  auto coded = fec::encode_batch(data, 1, PacketType::kInCoded, 900, 99, 0, 0);

  // Receiver got all but seq 2, then the coded packet from DC2.
  for (SeqNo s = 0; s < 5; ++s) {
    if (s == 2) continue;
    auto p = std::make_shared<Packet>(*data[s]);
    p->type = PacketType::kData;
    f.receiver->handle_packet(p);
  }
  f.receiver->handle_packet(coded[0]);
  f.sim.run_until(msec(50));

  EXPECT_EQ(f.receiver->stats().self_decoded, 1u);
  bool seq2_delivered = false;
  for (const auto& r : f.records) {
    if (r.seq == 2 && r.recovered) {
      seq2_delivered = true;
    }
  }
  EXPECT_TRUE(seq2_delivered);
}

TEST(Receiver, TailLossDetectedByShortTimer) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.markov.adaptive = false;
  config.markov.small_timeout = msec(25);
  Fixture f(config);
  // A burst, then silence: the short timer must fire a tail NACK.
  f.arrive(0);
  f.sim.run_until(msec(10));
  f.arrive(1);
  f.sim.run_until(msec(20));
  f.arrive(2);
  f.sim.run_until(msec(500));
  auto nacks = f.dc.of_type(PacketType::kNack);
  ASSERT_GE(nacks.size(), 1u);
  auto info = NackInfo::parse(nacks[0]->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->tail);
  EXPECT_EQ(info->expected, 3u);
  EXPECT_GE(f.receiver->stats().tail_nacks_sent, 1u);
}

TEST(Receiver, GiveUpDeclaresLossAfterWindow) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.recovery_give_up = msec(200);
  Fixture f(config);
  f.arrive(0);
  f.sim.run_until(msec(5));
  f.arrive(5);  // 1-4 missing; no recovery will come.
  f.sim.run_until(sec(3));
  EXPECT_EQ(f.receiver->stats().losses_given_up, 4u);
  int lost_records = 0;
  for (const auto& r : f.records) lost_records += r.lost ? 1 : 0;
  EXPECT_EQ(lost_records, 4);
}

TEST(Receiver, ReNacksWhileHolePersists) {
  ReceiverConfig config;
  config.rtt_estimate = msec(100);
  config.renack_interval = msec(50);
  config.recovery_give_up = msec(400);
  Fixture f(config);
  f.arrive(0);
  f.sim.run_until(msec(5));
  f.arrive(3);
  f.sim.run_until(msec(350));
  // Initial NACK plus at least one retry.
  EXPECT_GE(f.dc.of_type(PacketType::kNack).size(), 2u);
}

TEST(Receiver, SingleTimeoutModeSendsMoreNacks) {
  // Ablation D3: the fixed small timeout fires spurious tail NACKs at every
  // inter-burst gap, which the two-state model avoids (Section 6.4: 5x).
  auto count_nacks = [](bool use_markov) {
    ReceiverConfig config;
    config.use_markov = use_markov;
    config.single_timeout = msec(25);
    config.rtt_estimate = msec(200);
    config.markov.adaptive = false;
    Fixture f(config);
    SeqNo seq = 0;
    // 20 bursts of 5 packets (5 ms spacing), 300 ms apart.
    SimTime t = 0;
    for (int burst = 0; burst < 20; ++burst) {
      for (int i = 0; i < 5; ++i) {
        f.sim.run_until(t);
        f.arrive(seq++);
        t += msec(5);
      }
      t += msec(300);
    }
    f.sim.run_until(t + sec(1));
    return f.dc.of_type(PacketType::kNack).size();
  };
  const std::size_t with_markov = count_nacks(true);
  const std::size_t without = count_nacks(false);
  // The bench (`bench_tcp_markov`) quantifies the paper's 5x claim; here we
  // assert the direction with margin.
  EXPECT_GT(without, with_markov + with_markov / 2);
}

TEST(Receiver, UnknownFlowIgnored) {
  Fixture f;
  auto p = std::make_shared<Packet>();
  p->type = PacketType::kData;
  p->flow = 99;
  p->seq = 0;
  f.receiver->handle_packet(p);
  EXPECT_TRUE(f.records.empty());
}

}  // namespace
}  // namespace jqos::endpoint
