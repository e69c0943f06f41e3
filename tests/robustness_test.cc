// Protocol robustness: decoding never crashes or over-reads on corrupted,
// truncated or adversarial payloads (sweep-style "fuzz lite" with
// deterministic mutations), and servers reject garbage cleanly.
#include <gtest/gtest.h>

#include "common/random.h"
#include "glider/protocol.h"
#include "net/message.h"
#include "net/rpc_obs.h"
#include "nodekernel/protocol.h"
#include "testing/cluster.h"

namespace glider {
namespace {

// Every prefix of a valid frame must decode-fail gracefully, never crash.
TEST(RobustnessTest, MessageDecodeAllTruncations) {
  net::Message m;
  m.opcode = 42;
  m.request_id = 77;
  m.payload = Buffer::FromString("some payload content here");
  const Buffer frame = m.Encode();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    auto decoded = net::Message::Decode(ByteSpan(frame.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << cut << " decoded";
  }
  EXPECT_TRUE(net::Message::Decode(frame.span()).ok());
}

TEST(RobustnessTest, MessageDecodeRandomBytes) {
  SplitMix64 rng(99);
  for (int round = 0; round < 200; ++round) {
    Buffer junk(rng.NextBelow(200));
    for (std::size_t i = 0; i < junk.size(); ++i) {
      junk.data()[i] = static_cast<std::uint8_t>(rng.Next());
    }
    // Must not crash; may or may not decode (random bytes can form a
    // valid tiny frame).
    (void)net::Message::Decode(junk.span());
  }
}

TEST(RobustnessTest, MessageDecodeBitFlips) {
  net::Message m;
  m.opcode = 7;
  m.payload = Buffer::FromString("abcdefgh");
  const Buffer frame = m.Encode();
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    Buffer mutated(frame.data(), frame.size());
    mutated.data()[byte] ^= 0xFF;
    auto decoded = net::Message::Decode(mutated.span());
    if (decoded.ok()) {
      // A flip in opcode/status/id decodes fine; payload length flips must
      // have been caught.
      EXPECT_LE(decoded->payload.size(), frame.size());
    }
  }
}

template <typename T>
void TruncationSweep(const Buffer& encoded) {
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    (void)T::Decode(ByteSpan(encoded.data(), cut));  // must not crash
  }
  EXPECT_TRUE(T::Decode(encoded.span()).ok());
}

TEST(RobustnessTest, ProtocolStructsSurviveTruncation) {
  {
    nk::CreateNodeRequest req;
    req.path = "/x/y/z";
    req.type = nk::NodeType::kAction;
    req.action_type = "some.action";
    req.config = Buffer::FromString("config-bytes");
    TruncationSweep<nk::CreateNodeRequest>(req.Encode());
  }
  {
    nk::NodeInfoResponse resp;
    resp.info.action_type = "t";
    resp.info.slot = {1, 2, "addr:1234"};
    TruncationSweep<nk::NodeInfoResponse>(resp.Encode());
  }
  {
    nk::WriteBlockRequest req;
    req.data = Buffer::FromString("0123456789");
    TruncationSweep<nk::WriteBlockRequest>(req.Encode());
  }
  {
    core::StreamWriteRequest req;
    req.stream_id = 9;
    req.seq = 3;
    req.data = Buffer::FromString("abc");
    TruncationSweep<core::StreamWriteRequest>(req.Encode());
  }
  {
    core::ActionCreateRequest req;
    req.action_type = "x";
    req.config = Buffer::FromString("cfg");
    TruncationSweep<core::ActionCreateRequest>(req.Encode());
  }
  TruncationSweep<net::IntrospectRequest>(
      net::IntrospectRequest{net::Section::kProfile, false,
                             net::ProfileCmd::kStart, 99}
          .Encode());
}

// A count read from the peer must not size an allocation: a tiny payload
// that claims ~4G entries fails with a Status (truncation), never a
// std::bad_alloc abort from reserving for the claimed count.
TEST(RobustnessTest, InflatedCountsFailCleanly) {
  auto inflated = [](std::size_t prefix_zeros) {
    Buffer b(prefix_zeros + 4);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = i < prefix_zeros ? 0 : 0xFF;
    }
    return b;
  };
  // Series reply: generation 0, then counter count 0xFFFFFFFF.
  EXPECT_FALSE(net::SeriesDumpResponse::Decode(inflated(8).span()).ok());
  // Ledger reply: entry count 0xFFFFFFFF.
  EXPECT_FALSE(net::LedgerDumpResponse::Decode(inflated(0).span()).ok());
  EXPECT_FALSE(nk::ListResponse::Decode(inflated(0).span()).ok());
  EXPECT_FALSE(nk::ListServersResponse::Decode(inflated(0).span()).ok());

  // Inner counts too: one series whose sample count is inflated, and one
  // ledger sketch whose entry count is.
  {
    BinaryWriter w;
    w.PutU64(0);  // generation
    for (int i = 0; i < 3; ++i) w.PutU32(0);  // counters, gauges, hists
    w.PutU32(1);  // one series
    w.PutString("s");
    w.PutU32(0xFFFFFFFFu);  // samples
    const Buffer b = std::move(w).Finish();
    EXPECT_FALSE(net::SeriesDumpResponse::Decode(b.span()).ok());
  }
  {
    BinaryWriter w;
    w.PutU32(0);  // ledger entries
    w.PutU8(1);   // one sketch
    w.PutString("keys");
    w.PutU64(0);            // total
    w.PutU32(0xFFFFFFFFu);  // entries
    const Buffer b = std::move(w).Finish();
    EXPECT_FALSE(net::LedgerDumpResponse::Decode(b.span()).ok());
  }
}

// Live servers must answer malformed payloads with errors, not crash.
TEST(RobustnessTest, ServersRejectGarbagePayloads) {
  auto cluster = testing::MiniCluster::Start({});
  ASSERT_TRUE(cluster.ok());

  SplitMix64 rng(7);
  const std::vector<std::string> addresses = {
      (*cluster)->metadata_address(), (*cluster)->data(0).address(),
      (*cluster)->active(0).address()};
  const std::vector<std::uint16_t> opcodes = {
      nk::kCreateNode, nk::kLookup,       nk::kGetBlock,
      nk::kWriteBlock, nk::kReadBlock,    core::kActionCreate,
      core::kStreamOpen, core::kStreamWrite, core::kStreamRead};
  for (const auto& address : addresses) {
    auto conn = (*cluster)->transport().Connect(address, nullptr);
    ASSERT_TRUE(conn.ok());
    for (const std::uint16_t opcode : opcodes) {
      Buffer junk(rng.NextBelow(40));
      for (std::size_t i = 0; i < junk.size(); ++i) {
        junk.data()[i] = static_cast<std::uint8_t>(rng.Next());
      }
      auto result = (*conn)->CallSync(opcode, std::move(junk));
      // Either a clean decode error or (rarely) a valid-looking request
      // that fails on semantics; never a hang or crash.
      if (result.ok()) continue;
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
  // The cluster must still be fully functional afterwards.
  auto client = (*cluster)->NewInternalClient();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->CreateNode("/after", nk::NodeType::kFile).ok());
  EXPECT_TRUE((*client)->PutValue("/after_kv", AsBytes("v")).ok());
}

// Stream operations referencing unknown streams / slots fail cleanly.
TEST(RobustnessTest, UnknownStreamAndSlotIdsRejected) {
  auto cluster = testing::MiniCluster::Start({});
  ASSERT_TRUE(cluster.ok());
  auto conn =
      (*cluster)->transport().Connect((*cluster)->active(0).address(), nullptr);
  ASSERT_TRUE(conn.ok());

  core::StreamWriteRequest write;
  write.stream_id = 424242;
  write.data = Buffer::FromString("x");
  EXPECT_EQ((*conn)->CallSync(core::kStreamWrite, write.Encode())
                .status()
                .code(),
            StatusCode::kNotFound);

  core::StreamReadRequest read;
  read.stream_id = 424242;
  EXPECT_EQ(
      (*conn)->CallSync(core::kStreamRead, read.Encode()).status().code(),
      StatusCode::kNotFound);

  core::StreamOpenRequest open;
  open.slot = 12345;
  EXPECT_FALSE((*conn)->CallSync(core::kStreamOpen, open.Encode()).ok());

  core::SlotRequest stat;
  stat.slot = 3;  // in range but empty
  EXPECT_EQ(
      (*conn)->CallSync(core::kActionStat, stat.Encode()).status().code(),
      StatusCode::kNotFound);
}

}  // namespace
}  // namespace glider
