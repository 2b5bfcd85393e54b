#include "trace/reader.h"

#include <cstring>
#include <stdexcept>

namespace ftgcs::trace {

namespace {

bool get_u32(std::FILE* file, std::uint32_t& out) {
  std::uint8_t bytes[4];
  if (std::fread(bytes, 1, sizeof bytes, file) != sizeof bytes) return false;
  out = static_cast<std::uint32_t>(bytes[0]) |
        static_cast<std::uint32_t>(bytes[1]) << 8 |
        static_cast<std::uint32_t>(bytes[2]) << 16 |
        static_cast<std::uint32_t>(bytes[3]) << 24;
  return true;
}

bool get_u64(std::FILE* file, std::uint64_t& out) {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  if (!get_u32(file, lo) || !get_u32(file, hi)) return false;
  out = static_cast<std::uint64_t>(hi) << 32 | lo;
  return true;
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("trace: cannot open '" + path + "'");
  }
  char magic[kMagicBytes];
  if (std::fread(magic, 1, kMagicBytes, file_) != kMagicBytes ||
      std::memcmp(magic, kMagic, kMagicBytes) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("trace: '" + path + "' is not a trace file");
  }
  frame_file_offset_ = kMagicBytes;
}

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceReader::fail(const std::string& what) const {
  throw std::runtime_error("trace: '" + path_ + "' at offset " +
                           std::to_string(offset()) + ": " + what);
}

bool TraceReader::load_frame() {
  frame_file_offset_ += frame_.size();
  frame_.clear();
  cursor_ = 0;
  std::uint32_t length = 0;
  std::uint32_t count = 0;
  if (!get_u32(file_, length) || !get_u32(file_, count)) {
    fail("truncated frame header");
  }
  // Both checks run before the payload buffer is sized, so a corrupt
  // header costs at most one kMaxFrameBytes frame.
  if (length > kMaxFrameBytes) {
    fail("frame length " + std::to_string(length) + " exceeds " +
         std::to_string(kMaxFrameBytes) + " bytes");
  }
  if (count > length) {
    fail("frame record count " + std::to_string(count) + " exceeds its " +
         std::to_string(length) + "-byte payload");
  }
  frame_file_offset_ += 8;
  if (length == 0) {  // end marker; the trailer must match
    std::uint64_t total = 0;
    if (!get_u64(file_, total)) fail("truncated trailer");
    if (total != records_read_) {
      fail("trailer count " + std::to_string(total) + " != " +
           std::to_string(records_read_) + " records decoded");
    }
    done_ = true;
    return false;
  }
  frame_.resize(length);
  if (std::fread(frame_.data(), 1, length, file_) != length) {
    fail("truncated frame payload");
  }
  if (count == 0) fail("non-empty frame with zero record count");
  frame_records_left_ = count;
  return true;
}

std::uint64_t TraceReader::read_varint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (cursor_ >= frame_.size()) fail("varint overruns frame");
    const std::uint8_t byte = frame_[cursor_++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  fail("varint longer than 10 bytes");
}

bool TraceReader::next(Record& out) {
  if (done_) return false;
  if (frame_records_left_ == 0) {
    if (cursor_ != frame_.size()) fail("trailing bytes in frame");
    if (!load_frame()) return false;
  }
  out.seq = records_read_;
  out.offset = offset();
  if (cursor_ >= frame_.size()) fail("record overruns frame");
  out.kind = frame_[cursor_];
  if (out.kind > kMaxKind) {
    fail("unknown record kind " + std::to_string(out.kind));
  }
  ++cursor_;
  out.sender = static_cast<std::int32_t>(unzigzag(read_varint()));
  out.dest = static_cast<std::int32_t>(unzigzag(read_varint()));
  prev_time_bits_ ^= read_varint();
  out.at = bits_time(prev_time_bits_);
  out.level = kind_has_level(out.kind)
                  ? static_cast<std::int32_t>(unzigzag(read_varint()))
                  : 0;
  if (kind_has_value(out.kind)) {
    if (cursor_ + 8 > frame_.size()) fail("value bits overrun frame");
    std::uint64_t bits = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      bits |= static_cast<std::uint64_t>(frame_[cursor_++]) << shift;
    }
    out.value = bits_time(bits);
  } else {
    out.value = 0.0;
  }
  --frame_records_left_;
  ++records_read_;
  return true;
}

}  // namespace ftgcs::trace
