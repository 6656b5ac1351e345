#include "net/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace vizcache {
namespace {

/// Append-only little-endian frame builder. The first 4 bytes are reserved
/// for the length prefix and patched in take().
class WireWriter {
 public:
  /// `body_bytes` pre-sizes the buffer when the frame's size is known.
  explicit WireWriter(usize body_bytes = 0) {
    bytes_.reserve(4 + body_bytes);
    bytes_.resize(4);
  }

  void put_u8(u8 v) { bytes_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_f64(double v) { put_le(std::bit_cast<u64>(v)); }
  void put_type(FrameType t) { put_u8(static_cast<u8>(t)); }
  /// Appends `n` bytes for the caller to fill; valid until the next put.
  u8* extend(usize n) {
    const usize at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  std::vector<u8> take() {
    const u32 payload = static_cast<u32>(bytes_.size() - 4);
    for (usize i = 0; i < 4; ++i) {
      bytes_[i] = static_cast<u8>(payload >> (8 * i));
    }
    return std::move(bytes_);
  }

 private:
  template <typename T>
  void put_le(T v) {
    for (usize i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

  std::vector<u8> bytes_;
};

/// Bounds-checked little-endian reader over a frame body. Every read_* is
/// false on underrun; decoders additionally require done() at the end so
/// trailing garbage is rejected, not silently accepted.
class WireReader {
 public:
  explicit WireReader(std::span<const u8> bytes) : bytes_(bytes) {}

  bool read_u8(u8& out) { return read_le(out); }
  bool read_u16(u16& out) { return read_le(out); }
  bool read_u32(u32& out) { return read_le(out); }
  bool read_u64(u64& out) { return read_le(out); }
  bool read_f64(double& out) {
    u64 bits = 0;
    if (!read_le(bits)) return false;
    out = std::bit_cast<double>(bits);
    return true;
  }
  bool read_bytes(std::span<const u8>& out, usize n) {
    if (bytes_.size() - pos_ < n) return false;
    out = bytes_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  bool done() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  bool read_le(T& out) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    T v = 0;
    for (usize i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(bytes_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    out = v;
    return true;
  }

  std::span<const u8> bytes_;
  usize pos_ = 0;
};

std::vector<u8> empty_request(FrameType type) {
  WireWriter w;
  w.put_type(type);
  return w.take();
}

}  // namespace

std::vector<u8> encode_open() { return empty_request(FrameType::kOpen); }
std::vector<u8> encode_close() { return empty_request(FrameType::kClose); }

std::vector<u8> encode_step(const Camera& camera) {
  WireWriter w;
  w.put_type(FrameType::kStep);
  w.put_f64(camera.position().x);
  w.put_f64(camera.position().y);
  w.put_f64(camera.position().z);
  w.put_f64(camera.view_angle_deg());
  return w.take();
}

std::vector<u8> encode_fetch(BlockId id) {
  WireWriter w;
  w.put_type(FrameType::kFetch);
  w.put_u32(id);
  return w.take();
}

std::vector<u8> encode_open_ok(SessionId session) {
  WireWriter w;
  w.put_type(FrameType::kOpenOk);
  w.put_u32(session);
  return w.take();
}

std::vector<u8> encode_step_ok(const SessionStepResult& result) {
  WireWriter w;
  w.put_type(FrameType::kStepOk);
  w.put_u64(result.step);
  w.put_u64(result.visible_blocks);
  w.put_u64(result.fast_misses);
  w.put_u64(result.coalesced_hits);
  w.put_u64(result.prefetched);
  w.put_u64(result.prefetch_shed);
  w.put_u64(result.prefetch_suppressed);
  w.put_f64(result.io_time);
  w.put_f64(result.lookup_time);
  w.put_f64(result.prefetch_time);
  w.put_f64(result.render_time);
  w.put_f64(result.total_time);
  return w.take();
}

std::vector<u8> encode_fetch_ok(BlockId id, bool fast_hit, bool coalesced,
                                SimSeconds seconds, u64 payload_bytes) {
  // The length prefix counts the type byte and the 22 fixed bytes below.
  constexpr u64 kFixedBytes = 1 + 4 + 1 + 1 + 8 + 8;
  VIZ_REQUIRE(payload_bytes + kFixedBytes <= kMaxResponsePayload,
              "fetch payload exceeds the response frame cap");
  WireWriter w(kFixedBytes + payload_bytes);
  w.put_type(FrameType::kFetchOk);
  w.put_u32(id);
  w.put_u8(fast_hit ? 1 : 0);
  w.put_u8(coalesced ? 1 : 0);
  w.put_f64(seconds);
  w.put_u64(payload_bytes);
  u8* payload = w.extend(payload_bytes);
  for (u64 i = 0; i < payload_bytes; ++i) {
    payload[i] = block_payload_byte(id, i);
  }
  return w.take();
}

std::vector<u8> encode_close_ok(const SessionSummary& summary) {
  WireWriter w;
  w.put_type(FrameType::kCloseOk);
  w.put_u32(summary.id);
  w.put_u64(summary.steps);
  w.put_u64(summary.demand_requests);
  w.put_u64(summary.fast_misses);
  w.put_u64(summary.coalesced_hits);
  w.put_u64(summary.prefetched);
  w.put_u64(summary.prefetch_shed);
  w.put_u64(summary.prefetch_suppressed);
  w.put_f64(summary.sim_time);
  return w.take();
}

std::vector<u8> encode_error(NetErrorCode code, const std::string& message) {
  WireWriter w;
  w.put_type(FrameType::kError);
  w.put_u16(static_cast<u16>(code));
  const usize len = std::min<usize>(message.size(), 512);
  w.put_u16(static_cast<u16>(len));
  for (usize i = 0; i < len; ++i) w.put_u8(static_cast<u8>(message[i]));
  return w.take();
}

std::optional<Camera> decode_step(std::span<const u8> body) {
  WireReader r(body);
  Vec3 pos;
  double angle = 0.0;
  if (!r.read_f64(pos.x) || !r.read_f64(pos.y) || !r.read_f64(pos.z) ||
      !r.read_f64(angle) || !r.done()) {
    return std::nullopt;
  }
  // Reject what Camera's constructor would refuse (it throws): a hostile
  // frame must come out of here as nullopt, never as an exception. The
  // comparison is NaN-safe — NaN fails `angle > 0.0`.
  if (!(angle > 0.0 && angle < 180.0)) return std::nullopt;
  if (!std::isfinite(pos.x) || !std::isfinite(pos.y) || !std::isfinite(pos.z)) {
    return std::nullopt;
  }
  return Camera(pos, angle);
}

std::optional<BlockId> decode_fetch(std::span<const u8> body) {
  WireReader r(body);
  BlockId id = kInvalidBlock;
  if (!r.read_u32(id) || !r.done()) return std::nullopt;
  return id;
}

std::optional<SessionId> decode_open_ok(std::span<const u8> body) {
  WireReader r(body);
  SessionId id = 0;
  if (!r.read_u32(id) || !r.done()) return std::nullopt;
  return id;
}

std::optional<SessionStepResult> decode_step_ok(std::span<const u8> body) {
  WireReader r(body);
  SessionStepResult sr;
  u64 visible = 0, misses = 0, coalesced = 0, prefetched = 0, shed = 0,
      suppressed = 0;
  if (!r.read_u64(sr.step) || !r.read_u64(visible) || !r.read_u64(misses) ||
      !r.read_u64(coalesced) || !r.read_u64(prefetched) || !r.read_u64(shed) ||
      !r.read_u64(suppressed) || !r.read_f64(sr.io_time) ||
      !r.read_f64(sr.lookup_time) || !r.read_f64(sr.prefetch_time) ||
      !r.read_f64(sr.render_time) || !r.read_f64(sr.total_time) || !r.done()) {
    return std::nullopt;
  }
  sr.visible_blocks = static_cast<usize>(visible);
  sr.fast_misses = static_cast<usize>(misses);
  sr.coalesced_hits = static_cast<usize>(coalesced);
  sr.prefetched = static_cast<usize>(prefetched);
  sr.prefetch_shed = static_cast<usize>(shed);
  sr.prefetch_suppressed = static_cast<usize>(suppressed);
  return sr;
}

std::optional<FetchReply> decode_fetch_ok(std::span<const u8> body) {
  WireReader r(body);
  FetchReply reply;
  u8 fast_hit = 0, coalesced = 0;
  u64 payload_bytes = 0;
  std::span<const u8> payload;
  if (!r.read_u32(reply.block) || !r.read_u8(fast_hit) ||
      !r.read_u8(coalesced) || !r.read_f64(reply.seconds) ||
      !r.read_u64(payload_bytes) ||
      !r.read_bytes(payload, static_cast<usize>(payload_bytes)) || !r.done()) {
    return std::nullopt;
  }
  reply.fast_hit = fast_hit != 0;
  reply.coalesced = coalesced != 0;
  reply.payload.assign(payload.begin(), payload.end());
  return reply;
}

std::optional<SessionSummary> decode_close_ok(std::span<const u8> body) {
  WireReader r(body);
  SessionSummary s;
  if (!r.read_u32(s.id) || !r.read_u64(s.steps) ||
      !r.read_u64(s.demand_requests) || !r.read_u64(s.fast_misses) ||
      !r.read_u64(s.coalesced_hits) || !r.read_u64(s.prefetched) ||
      !r.read_u64(s.prefetch_shed) || !r.read_u64(s.prefetch_suppressed) ||
      !r.read_f64(s.sim_time) || !r.done()) {
    return std::nullopt;
  }
  return s;
}

std::optional<NetErrorReply> decode_error(std::span<const u8> body) {
  WireReader r(body);
  u16 code = 0, len = 0;
  std::span<const u8> text;
  if (!r.read_u16(code) || !r.read_u16(len) || !r.read_bytes(text, len) ||
      !r.done()) {
    return std::nullopt;
  }
  NetErrorReply reply;
  reply.code = static_cast<NetErrorCode>(code);
  reply.message.assign(text.begin(), text.end());
  return reply;
}

ParseStatus try_parse_frame(std::span<const u8> buffer, usize max_payload,
                            ParsedFrame& out) {
  if (buffer.size() < 4) return ParseStatus::kNeedMore;
  u32 length = 0;
  for (usize i = 0; i < 4; ++i) {
    length |= static_cast<u32>(buffer[i]) << (8 * i);
  }
  // A frame with no type byte is as fatal as an oversized one: the stream
  // offers no way to resynchronise, so the connection must go.
  if (length == 0 || length > max_payload) return ParseStatus::kTooLarge;
  if (buffer.size() - 4 < length) return ParseStatus::kNeedMore;
  out.type = static_cast<FrameType>(buffer[4]);
  out.body = buffer.subspan(5, length - 1);
  out.frame_bytes = 4 + static_cast<usize>(length);
  return ParseStatus::kFrame;
}

}  // namespace vizcache
