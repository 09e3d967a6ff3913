#include "net/frame.hpp"

#include <algorithm>
#include <cstring>

namespace dlb::net {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'L', 'B', 'F'};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xFF));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFF));
  }
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* data) noexcept {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) value = (value << 8) | data[i];
  return value;
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* data) noexcept {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | data[i];
  return value;
}

/// Validates a header and returns the declared payload size. Everything
/// the fixed 44 bytes can prove wrong is diagnosed here, so both the
/// one-shot decoder and the streaming reader reject garbage before
/// trusting the length field.
std::size_t check_header(const std::uint8_t* data) {
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    throw FrameError(FrameError::Kind::kBadMagic,
                     "frame: bad magic (not a DLBF stream)");
  }
  if (data[4] != kFrameVersion) {
    throw FrameError(FrameError::Kind::kBadVersion,
                     "frame: unsupported version " + std::to_string(data[4]));
  }
  if (!frame_type_valid(data[5])) {
    throw FrameError(FrameError::Kind::kBadType,
                     "frame: unknown type " + std::to_string(data[5]));
  }
  const std::size_t payload_size = get_u32(data + 40);
  if (payload_size > kMaxFramePayload) {
    throw FrameError(FrameError::Kind::kOversized,
                     "frame: declared payload of " +
                         std::to_string(payload_size) + " bytes exceeds " +
                         std::to_string(kMaxFramePayload));
  }
  return payload_size;
}

Frame parse(const std::uint8_t* data, std::size_t payload_size) {
  Frame frame;
  frame.type = static_cast<FrameType>(data[5]);
  frame.from = get_u32(data + 8);
  frame.to = get_u32(data + 12);
  frame.token = get_u64(data + 16);
  frame.trace = get_u64(data + 24);
  frame.lclock = get_u64(data + 32);
  frame.payload.assign(data + kFrameHeaderSize,
                       data + kFrameHeaderSize + payload_size);
  return frame;
}

/// Shared shape of every list payload: u32 count then count u32 ids.
void put_job_list(std::vector<std::uint8_t>& out,
                  const std::vector<JobId>& jobs) {
  put_u32(out, static_cast<std::uint32_t>(jobs.size()));
  for (const JobId job : jobs) put_u32(out, job);
}

std::vector<JobId> get_job_list(const std::uint8_t* data, std::size_t size,
                                std::size_t& offset) {
  if (offset + 4 > size) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame payload: truncated job list count");
  }
  const std::uint32_t count = get_u32(data + offset);
  offset += 4;
  if (offset + std::size_t{count} * 4 > size) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame payload: truncated job list body");
  }
  std::vector<JobId> jobs(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    jobs[i] = get_u32(data + offset);
    offset += 4;
  }
  return jobs;
}

void check_consumed(std::size_t offset, std::size_t size) {
  if (offset != size) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame payload: trailing bytes after payload");
  }
}

}  // namespace

bool frame_type_valid(std::uint8_t code) noexcept {
  return code >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         code <= static_cast<std::uint8_t>(FrameType::kHello);
}

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kRequest:
      return "REQUEST";
    case FrameType::kAccept:
      return "ACCEPT";
    case FrameType::kReject:
      return "REJECT";
    case FrameType::kTransfer:
      return "TRANSFER";
    case FrameType::kDone:
      return "DONE";
    case FrameType::kToken:
      return "TOKEN";
    case FrameType::kTokenAck:
      return "TOKEN_ACK";
    case FrameType::kHello:
      return "HELLO";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw FrameError(FrameError::Kind::kOversized,
                     "frame: payload of " +
                         std::to_string(frame.payload.size()) +
                         " bytes exceeds " +
                         std::to_string(kMaxFramePayload));
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  for (const std::uint8_t byte : kMagic) out.push_back(byte);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u16(out, 0);
  put_u32(out, frame.from);
  put_u32(out, frame.to);
  put_u64(out, frame.token);
  put_u64(out, frame.trace);
  put_u64(out, frame.lclock);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

Frame decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderSize) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame: " + std::to_string(size) +
                         " bytes is shorter than the header");
  }
  const std::size_t payload_size = check_header(data);
  if (size != kFrameHeaderSize + payload_size) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame: buffer holds " + std::to_string(size) +
                         " bytes, frame declares " +
                         std::to_string(kFrameHeaderSize + payload_size));
  }
  return parse(data, payload_size);
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
  std::size_t offset = 0;
  while (buffer_.size() - offset >= kFrameHeaderSize) {
    const std::size_t payload_size = check_header(buffer_.data() + offset);
    if (buffer_.size() - offset < kFrameHeaderSize + payload_size) break;
    frames_.push_back(parse(buffer_.data() + offset, payload_size));
    offset += kFrameHeaderSize + payload_size;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
}

Frame FrameReader::pop() {
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

std::vector<std::uint8_t> encode_jobs(const std::vector<JobId>& jobs) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + jobs.size() * 4);
  put_job_list(out, jobs);
  return out;
}

std::vector<JobId> decode_jobs(const std::vector<std::uint8_t>& payload) {
  std::size_t offset = 0;
  std::vector<JobId> jobs =
      get_job_list(payload.data(), payload.size(), offset);
  check_consumed(offset, payload.size());
  return jobs;
}

std::vector<std::uint8_t> encode_moves(const TransferMoves& moves) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + moves.total() * 4);
  put_job_list(out, moves.to_initiator);
  put_job_list(out, moves.to_peer);
  return out;
}

TransferMoves decode_moves(const std::vector<std::uint8_t>& payload) {
  std::size_t offset = 0;
  TransferMoves moves;
  moves.to_initiator = get_job_list(payload.data(), payload.size(), offset);
  moves.to_peer = get_job_list(payload.data(), payload.size(), offset);
  check_consumed(offset, payload.size());
  return moves;
}

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello) {
  std::vector<std::uint8_t> out;
  out.reserve(12);
  put_u32(out, hello.host);
  put_u32(out, hello.machine_lo);
  put_u32(out, hello.machine_hi);
  return out;
}

HelloPayload decode_hello(const std::vector<std::uint8_t>& payload) {
  if (payload.size() != 12) {
    throw FrameError(FrameError::Kind::kTruncated,
                     "frame payload: HELLO must be exactly 12 bytes");
  }
  HelloPayload hello;
  hello.host = get_u32(payload.data());
  hello.machine_lo = get_u32(payload.data() + 4);
  hello.machine_hi = get_u32(payload.data() + 8);
  return hello;
}

}  // namespace dlb::net
