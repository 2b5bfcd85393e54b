// Streaming reader of the binary trace format (see format.h).
//
// next() decodes one record at a time and stamps it with its replay cursor
// (seq = index in the stream, offset = absolute file offset of its first
// byte). Malformed input — bad magic, truncated frames, a frame length
// above kMaxFrameBytes or a record count above the payload length (both
// rejected before the payload is allocated), a record kind above
// kMaxKind, varint overruns, a trailer count that disagrees with the
// records actually decoded — throws std::runtime_error with the offending
// offset in the message, so ftgcs_trace can localize corruption instead
// of guessing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/format.h"

namespace ftgcs::trace {

class TraceReader {
 public:
  /// Opens `path` and validates the header. Throws std::runtime_error on
  /// open failure or a bad magic.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Decodes the next record into `out` (cursor fields included). Returns
  /// false at a clean end of stream — after validating the trailer count.
  bool next(Record& out);

  std::uint64_t records_read() const { return records_read_; }

  /// Absolute file offset at which the next record would be decoded.
  std::uint64_t offset() const {
    return frame_file_offset_ + cursor_;
  }

 private:
  bool load_frame();  ///< false on the end marker (validates the trailer)
  std::uint64_t read_varint();
  [[noreturn]] void fail(const std::string& what) const;

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<std::uint8_t> frame_;     ///< current frame payload
  std::size_t cursor_ = 0;              ///< decode position in frame_
  std::uint32_t frame_records_left_ = 0;
  std::uint64_t frame_file_offset_ = 0;  ///< file offset of frame_[0]
  std::uint64_t prev_time_bits_ = 0;
  std::uint64_t records_read_ = 0;
  bool done_ = false;
};

}  // namespace ftgcs::trace
