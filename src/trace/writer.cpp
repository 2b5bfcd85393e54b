#include "trace/writer.h"

#include <stdexcept>

namespace ftgcs::trace {

namespace {

void put_u32(std::FILE* file, std::uint32_t v) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  if (std::fwrite(bytes, 1, sizeof bytes, file) != sizeof bytes) {
    throw std::runtime_error("trace: short write");
  }
}

void put_u64(std::FILE* file, std::uint64_t v) {
  put_u32(file, static_cast<std::uint32_t>(v));
  put_u32(file, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("trace: cannot create '" + path + "'");
  }
  if (std::fwrite(kMagic, 1, kMagicBytes, file_) != kMagicBytes) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("trace: short write to '" + path + "'");
  }
  bytes_written_ = kMagicBytes;
  pending_.reserve(kMaxFrameBytes);
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; a truncated trace fails loudly at read
    // time instead (missing end marker / trailer mismatch).
  }
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::append(const Record& record) {
  pending_.push_back(record.kind);
  append_varint(pending_, zigzag(record.sender));
  append_varint(pending_, zigzag(record.dest));
  const std::uint64_t bits = time_bits(record.at);
  append_varint(pending_, bits ^ prev_time_bits_);
  prev_time_bits_ = bits;
  if (kind_has_level(record.kind)) {
    append_varint(pending_, zigzag(record.level));
  }
  if (kind_has_value(record.kind)) {
    const std::uint64_t value = time_bits(record.value);
    for (int shift = 0; shift < 64; shift += 8) {
      pending_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }
  ++pending_count_;
  ++records_;
  if (pending_.size() >= kFrameBytes) flush_frame();
}

void TraceWriter::flush_frame() {
  if (pending_.empty()) return;
  put_u32(file_, static_cast<std::uint32_t>(pending_.size()));
  put_u32(file_, pending_count_);
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    throw std::runtime_error("trace: short write");
  }
  framed_bytes_ += kFrameHeaderBytes + pending_.size();
  bytes_written_ += kFrameHeaderBytes + pending_.size();
  pending_.clear();
  pending_count_ = 0;
}

void TraceWriter::finish() {
  if (finished_ || file_ == nullptr) return;
  flush_frame();
  put_u32(file_, 0);  // end marker: empty frame
  put_u32(file_, 0);
  put_u64(file_, records_);
  bytes_written_ += 16;
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("trace: flush failed");
  }
  finished_ = true;
}

}  // namespace ftgcs::trace
