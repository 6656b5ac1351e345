#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace vizcache {
namespace {

/// Cut one complete frame out of an encoded buffer (or fail the test).
/// The returned frame's body is a view into `bytes`: callers must keep the
/// encoded vector alive for as long as they use the frame.
ParsedFrame must_parse(const std::vector<u8>& bytes) {
  ParsedFrame frame;
  EXPECT_EQ(try_parse_frame(bytes, kMaxResponsePayload, frame),
            ParseStatus::kFrame);
  EXPECT_EQ(frame.frame_bytes, bytes.size());
  return frame;
}

TEST(Protocol, OpenAndCloseAreEmptyBodied) {
  const std::vector<u8> open_bytes = encode_open();
  const ParsedFrame open = must_parse(open_bytes);
  EXPECT_EQ(open.type, FrameType::kOpen);
  EXPECT_TRUE(open.body.empty());
  const std::vector<u8> close_bytes = encode_close();
  const ParsedFrame close = must_parse(close_bytes);
  EXPECT_EQ(close.type, FrameType::kClose);
  EXPECT_TRUE(close.body.empty());
}

TEST(Protocol, StepRoundTripPreservesCameraBits) {
  const Camera camera({1.25, -2.5, 3.75}, 42.5);
  const std::vector<u8> bytes = encode_step(camera);
  const ParsedFrame frame = must_parse(bytes);
  ASSERT_EQ(frame.type, FrameType::kStep);
  const std::optional<Camera> back = decode_step(frame.body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->position(), camera.position());
  EXPECT_DOUBLE_EQ(back->view_angle_deg(), camera.view_angle_deg());
}

TEST(Protocol, FetchAndOpenOkRoundTrip) {
  const std::vector<u8> fetch_bytes = encode_fetch(1234);
  const ParsedFrame fetch = must_parse(fetch_bytes);
  ASSERT_EQ(fetch.type, FrameType::kFetch);
  EXPECT_EQ(decode_fetch(fetch.body), std::optional<BlockId>(1234));

  const std::vector<u8> ok_bytes = encode_open_ok(77);
  const ParsedFrame ok = must_parse(ok_bytes);
  ASSERT_EQ(ok.type, FrameType::kOpenOk);
  EXPECT_EQ(decode_open_ok(ok.body), std::optional<SessionId>(77));
}

TEST(Protocol, StepOkRoundTripPreservesEveryField) {
  SessionStepResult sr;
  sr.step = 17;
  sr.visible_blocks = 90;
  sr.fast_misses = 12;
  sr.coalesced_hits = 3;
  sr.prefetched = 7;
  sr.prefetch_shed = 2;
  sr.prefetch_suppressed = 1;
  sr.io_time = 0.125;
  sr.lookup_time = 0.0625;
  sr.prefetch_time = 0.25;
  sr.render_time = 0.5;
  sr.total_time = 0.875;
  const std::vector<u8> bytes = encode_step_ok(sr);
  const ParsedFrame frame = must_parse(bytes);
  ASSERT_EQ(frame.type, FrameType::kStepOk);
  const std::optional<SessionStepResult> back = decode_step_ok(frame.body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->step, sr.step);
  EXPECT_EQ(back->visible_blocks, sr.visible_blocks);
  EXPECT_EQ(back->fast_misses, sr.fast_misses);
  EXPECT_EQ(back->coalesced_hits, sr.coalesced_hits);
  EXPECT_EQ(back->prefetched, sr.prefetched);
  EXPECT_EQ(back->prefetch_shed, sr.prefetch_shed);
  EXPECT_EQ(back->prefetch_suppressed, sr.prefetch_suppressed);
  EXPECT_DOUBLE_EQ(back->io_time, sr.io_time);
  EXPECT_DOUBLE_EQ(back->lookup_time, sr.lookup_time);
  EXPECT_DOUBLE_EQ(back->prefetch_time, sr.prefetch_time);
  EXPECT_DOUBLE_EQ(back->render_time, sr.render_time);
  EXPECT_DOUBLE_EQ(back->total_time, sr.total_time);
}

TEST(Protocol, FetchOkCarriesDeterministicPayload) {
  const std::vector<u8> bytes = encode_fetch_ok(9, true, false, 0.25, 100);
  const ParsedFrame frame = must_parse(bytes);
  ASSERT_EQ(frame.type, FrameType::kFetchOk);
  const std::optional<FetchReply> reply = decode_fetch_ok(frame.body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->block, 9u);
  EXPECT_TRUE(reply->fast_hit);
  EXPECT_FALSE(reply->coalesced);
  EXPECT_DOUBLE_EQ(reply->seconds, 0.25);
  ASSERT_EQ(reply->payload.size(), 100u);
  for (u64 i = 0; i < reply->payload.size(); ++i) {
    EXPECT_EQ(reply->payload[i], block_payload_byte(9, i));
  }
  // Different blocks get different payloads (the client can tell a mixup).
  EXPECT_NE(block_payload_byte(9, 0), block_payload_byte(10, 0));
}

TEST(Protocol, FetchOkAtTheResponseCapStillParses) {
  // FETCH-OK's length prefix counts the type byte and 22 fixed bytes ahead
  // of the payload. The largest payload the encoder accepts must frame
  // within the client's cap, and one byte more must be refused up front.
  const u64 largest = kMaxResponsePayload - 23;
  const std::vector<u8> bytes = encode_fetch_ok(4, false, true, 0.0, largest);
  ParsedFrame frame;
  ASSERT_EQ(try_parse_frame(bytes, kMaxResponsePayload, frame),
            ParseStatus::kFrame);
  const std::optional<FetchReply> reply = decode_fetch_ok(frame.body);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->payload.size(), largest);
  EXPECT_EQ(reply->payload.back(), block_payload_byte(4, largest - 1));
  EXPECT_THROW(encode_fetch_ok(4, false, true, 0.0, largest + 1),
               InvalidArgument);
}

TEST(Protocol, CloseOkRoundTrip) {
  SessionSummary sum;
  sum.id = 5;
  sum.steps = 40;
  sum.demand_requests = 3600;
  sum.fast_misses = 120;
  sum.coalesced_hits = 17;
  sum.prefetched = 220;
  sum.prefetch_shed = 4;
  sum.prefetch_suppressed = 9;
  sum.sim_time = 12.5;
  const std::vector<u8> bytes = encode_close_ok(sum);
  const ParsedFrame frame = must_parse(bytes);
  ASSERT_EQ(frame.type, FrameType::kCloseOk);
  const std::optional<SessionSummary> back = decode_close_ok(frame.body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, sum.id);
  EXPECT_EQ(back->steps, sum.steps);
  EXPECT_EQ(back->demand_requests, sum.demand_requests);
  EXPECT_EQ(back->coalesced_hits, sum.coalesced_hits);
  EXPECT_DOUBLE_EQ(back->sim_time, sum.sim_time);
}

TEST(Protocol, ErrorRoundTripAndCloseSemantics) {
  const std::vector<u8> bytes =
      encode_error(NetErrorCode::kBadBlock, "block 9 of 4");
  const ParsedFrame frame = must_parse(bytes);
  ASSERT_EQ(frame.type, FrameType::kError);
  const std::optional<NetErrorReply> reply = decode_error(frame.body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, NetErrorCode::kBadBlock);
  EXPECT_EQ(reply->message, "block 9 of 4");
  EXPECT_FALSE(error_closes_connection(NetErrorCode::kBadBlock));
  EXPECT_FALSE(error_closes_connection(NetErrorCode::kRejected));
  EXPECT_TRUE(error_closes_connection(NetErrorCode::kMalformed));
  EXPECT_TRUE(error_closes_connection(NetErrorCode::kShutdown));
}

TEST(Protocol, DecodersRejectTruncatedAndTrailingBytes) {
  const std::vector<u8> step = encode_step(Camera({1, 2, 3}, 30));
  ParsedFrame frame = must_parse(step);
  // Truncated: every strict prefix of the body must fail to decode.
  for (usize n = 0; n < frame.body.size(); ++n) {
    EXPECT_FALSE(decode_step(frame.body.subspan(0, n)).has_value()) << n;
  }
  // Trailing garbage after a valid body must also fail.
  std::vector<u8> long_body(frame.body.begin(), frame.body.end());
  long_body.push_back(0xAB);
  EXPECT_FALSE(decode_step(long_body).has_value());
  EXPECT_FALSE(decode_fetch(std::vector<u8>{1, 2, 3}).has_value());
  EXPECT_FALSE(decode_open_ok(std::vector<u8>{}).has_value());
}

TEST(Protocol, FetchOkRejectsPayloadLengthLies) {
  std::vector<u8> bytes = encode_fetch_ok(3, false, false, 0.0, 16);
  const ParsedFrame frame = must_parse(bytes);
  // The inner payload_bytes field says 16; feed a body one byte short.
  EXPECT_FALSE(
      decode_fetch_ok(frame.body.subspan(0, frame.body.size() - 1)).has_value());
}

TEST(Protocol, FramerNeedsMoreUntilComplete) {
  const std::vector<u8> bytes = encode_step(Camera({0, 0, 4}, 30));
  for (usize n = 0; n < bytes.size(); ++n) {
    ParsedFrame frame;
    EXPECT_EQ(try_parse_frame(std::span<const u8>(bytes.data(), n),
                              kMaxRequestPayload, frame),
              ParseStatus::kNeedMore)
        << "prefix length " << n;
  }
  ParsedFrame frame;
  EXPECT_EQ(try_parse_frame(bytes, kMaxRequestPayload, frame),
            ParseStatus::kFrame);
}

TEST(Protocol, FramerRejectsZeroAndOversizedLengths) {
  ParsedFrame frame;
  const std::vector<u8> zero{0, 0, 0, 0};
  EXPECT_EQ(try_parse_frame(zero, kMaxRequestPayload, frame),
            ParseStatus::kTooLarge);
  // Length 0xFFFFFFFF: fatal immediately, no need to buffer 4 GiB first.
  const std::vector<u8> huge{0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(try_parse_frame(huge, kMaxRequestPayload, frame),
            ParseStatus::kTooLarge);
  // One byte over the cap is fatal too.
  std::vector<u8> over{0, 0, 0, 0};
  const u32 len = static_cast<u32>(kMaxRequestPayload) + 1;
  for (usize i = 0; i < 4; ++i) over[i] = static_cast<u8>(len >> (8 * i));
  EXPECT_EQ(try_parse_frame(over, kMaxRequestPayload, frame),
            ParseStatus::kTooLarge);
}

// A STEP body with bytes that decode but violate Camera's invariants must be
// rejected as malformed (nullopt), not surface as a thrown VizError — the
// server's dispatch path relies on this.
TEST(Protocol, StepDecoderRejectsHostileCameraValues) {
  const auto body_with = [](const Vec3& pos, double angle) {
    std::vector<u8> body(32);
    const double values[4] = {pos.x, pos.y, pos.z, angle};
    std::memcpy(body.data(), values, sizeof values);
    return body;
  };
  const Vec3 ok_pos{0, 0, 4};
  ASSERT_TRUE(decode_step(body_with(ok_pos, 30.0)).has_value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(decode_step(body_with(ok_pos, 0.0)).has_value());
  EXPECT_FALSE(decode_step(body_with(ok_pos, 180.0)).has_value());
  EXPECT_FALSE(decode_step(body_with(ok_pos, -5.0)).has_value());
  EXPECT_FALSE(decode_step(body_with(ok_pos, nan)).has_value());
  EXPECT_FALSE(decode_step(body_with({nan, 0, 4}, 30.0)).has_value());
  EXPECT_FALSE(decode_step(body_with({0, inf, 4}, 30.0)).has_value());
}

// Fuzz: random bodies through every decoder must never crash or read out of
// bounds — worst case they return nullopt or a value.
TEST(Protocol, DecodersSurviveRandomBodies) {
  Rng rng(20260809);
  for (int round = 0; round < 2000; ++round) {
    const usize len = static_cast<usize>(rng.next_below(129));
    std::vector<u8> body(len);
    for (u8& b : body) b = static_cast<u8>(rng.next_below(256));
    (void)decode_step(body);
    (void)decode_fetch(body);
    (void)decode_open_ok(body);
    (void)decode_step_ok(body);
    (void)decode_fetch_ok(body);
    (void)decode_close_ok(body);
    (void)decode_error(body);
    ParsedFrame frame;
    (void)try_parse_frame(body, kMaxRequestPayload, frame);
  }
}

}  // namespace
}  // namespace vizcache
