// On-disk format of a streaming binary event trace (.ftr).
//
// Layout:
//
//   header   8 bytes        magic "FTGCSTR1"
//   frame*                  u32 LE payload length, u32 LE record count,
//                           payload (concatenated records)
//   end      8 bytes        a zero-length, zero-count frame
//   trailer  8 bytes        u64 LE total record count
//
// One record is one fired pulse delivery:
//
//   u8      kind            net::PulseKind tag
//   varint  zigzag(sender)  payload.a
//   varint  zigzag(dest)    payload.c
//   varint  time delta      bit pattern of `at` XORed with the previous
//                           record's (chained across frames; the first
//                           record XORs against 0.0) — exactly invertible,
//                           and near-monotone canonical times share their
//                           high mantissa/exponent bits, so the XOR is a
//                           small integer
//   varint  zigzag(level)   kMaxLevel / kPropose only
//   u64 LE  value bits      kShare only
//
// Frame boundaries depend only on the record byte stream (a frame is cut
// when the pending payload reaches kFrameBytes), never on wall clock or
// shard count — a requirement of the byte-identity contract: traces of the
// same run are identical files at every `--shards T`.
//
// Records are written in CANONICAL order: sorted by the total key
// (time, sender, dest, kind, level, value bits). Per-shard capture buffers
// are each in fire order; the collector merges them under this key at
// quiesced probe boundaries. Cross-record ties in the full key can only be
// byte-identical records (distinct deliveries at the exact same instant are
// measure-zero under the continuous channel-delay sampling — the same
// assumption the sharded backend's (time, sender, seq) contract rests on),
// so the sorted byte stream is partition-invariant.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/time_types.h"

namespace ftgcs::trace {

inline constexpr char kMagic[8] = {'F', 'T', 'G', 'C', 'S', 'T', 'R', '1'};
inline constexpr std::size_t kMagicBytes = 8;
/// Frame payload flush threshold. Part of the format contract: changing it
/// changes frame boundaries and therefore the bytes of every trace.
inline constexpr std::size_t kFrameBytes = 64 * 1024;
/// Largest payload a frame can hold: the writer cuts a frame after the
/// record that reaches kFrameBytes, and one record is at most 49 bytes
/// (kind, four 10-byte varints, 8 value bytes). The writer reserves this
/// much; the reader rejects a longer length field before allocating.
inline constexpr std::size_t kMaxFrameBytes = kFrameBytes + 64;

/// One decoded delivery record. `seq` and `offset` are reader-populated
/// cursor fields (the record's index in the stream and the absolute file
/// offset of its first byte); they are not serialized.
struct Record {
  sim::Time at = 0.0;
  std::int32_t sender = 0;
  std::int32_t dest = 0;
  std::uint8_t kind = 0;  ///< net::PulseKind value
  std::int32_t level = 0;
  double value = 0.0;

  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
};

/// Which optional fields a record tag carries (net::PulseKind values:
/// 0 = kClusterPulse, 1 = kMaxLevel, 2 = kShare, 3 = kPropose).
inline bool kind_has_level(std::uint8_t kind) {
  return kind == 1 || kind == 3;
}
inline bool kind_has_value(std::uint8_t kind) { return kind == 2; }
inline constexpr std::uint8_t kMaxKind = 3;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline std::uint64_t time_bits(double t) {
  std::uint64_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  return bits;
}
inline double bits_time(std::uint64_t bits) {
  double t;
  std::memcpy(&t, &bits, sizeof t);
  return t;
}

/// LEB128 on uint64 (7 bits per byte, high bit = continuation).
inline void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// The canonical total order of the merged stream. Identical full keys can
/// only belong to byte-identical records, so any consistent tie handling
/// yields the same bytes.
inline bool record_key_less(const Record& a, const Record& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.sender != b.sender) return a.sender < b.sender;
  if (a.dest != b.dest) return a.dest < b.dest;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.level != b.level) return a.level < b.level;
  return time_bits(a.value) < time_bits(b.value);
}

/// Payload-field equality (cursor fields excluded). Times and values
/// compare by bit pattern so ±0.0 and NaN payloads diff faithfully.
inline bool record_equal(const Record& a, const Record& b) {
  return time_bits(a.at) == time_bits(b.at) && a.sender == b.sender &&
         a.dest == b.dest && a.kind == b.kind && a.level == b.level &&
         time_bits(a.value) == time_bits(b.value);
}

}  // namespace ftgcs::trace
