// Trace format pins: round-trip fidelity, exact replay offsets, a
// byte-exact golden file, shard-count invariance of captured runs,
// the collector's commit merge (per window and streamed) against a
// sort-everything reference, typed write errors, and first-divergence
// localization under single-bit corruption.
//
// The golden constants pin the on-disk format itself (magic, frame
// layout, varint/zigzag/XOR-delta encoding, 64 KiB frame threshold).
// Any intentional format change must bump the magic AND these constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "byz/strategies.h"
#include "exp/exp.h"
#include "sim/event.h"
#include "sim/rng.h"
#include "trace/collector.h"
#include "trace/diff.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::ScenarioSpec;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Deterministic synthetic stream exercising every record kind, varint
/// widths from 1 byte up, and non-monotone value payloads. All arithmetic
/// is exact in IEEE-754, so the bytes are platform-independent.
std::vector<trace::Record> golden_records(int n) {
  std::vector<trace::Record> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    trace::Record r;
    r.at = i * (1.0 / 3.0);
    r.sender = (i * 131) % 3000;
    r.dest = (i * 17) % 3000;
    r.kind = static_cast<std::uint8_t>(i % 4);
    r.level = trace::kind_has_level(r.kind) ? (i % 97) : 0;
    r.value = trace::kind_has_value(r.kind) ? i * 1.25 - 3.0 : 0.0;
    records.push_back(r);
  }
  return records;
}

void write_trace(const std::string& path,
                 const std::vector<trace::Record>& records,
                 std::vector<std::uint64_t>* predicted_offsets = nullptr) {
  trace::TraceWriter writer(path);
  for (const trace::Record& r : records) {
    if (predicted_offsets != nullptr) {
      predicted_offsets->push_back(writer.next_record_offset());
    }
    writer.append(r);
  }
  writer.finish();
}

TEST(TraceFormat, RoundTripAllKinds) {
  const std::string path = temp_path("roundtrip.ftr");
  const std::vector<trace::Record> records = golden_records(200);
  write_trace(path, records);

  trace::TraceReader reader(path);
  trace::Record decoded;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader.next(decoded)) << "record " << i;
    EXPECT_EQ(decoded.seq, i);
    EXPECT_TRUE(trace::record_equal(decoded, records[i])) << "record " << i;
    EXPECT_EQ(decoded.at, records[i].at);
    EXPECT_EQ(decoded.level, records[i].level);
    EXPECT_EQ(decoded.value, records[i].value);
  }
  EXPECT_FALSE(reader.next(decoded));  // validates the trailer
  EXPECT_EQ(reader.records_read(), records.size());
}

TEST(TraceFormat, MultiFrameReplayOffsetsAreExact) {
  // ~10 bytes/record × 20000 pushes well past the 64 KiB frame threshold,
  // so several frame boundaries land mid-stream.
  const std::string path = temp_path("frames.ftr");
  const std::vector<trace::Record> records = golden_records(20000);
  std::vector<std::uint64_t> predicted;
  write_trace(path, records, &predicted);

  trace::TraceReader reader(path);
  trace::Record decoded;
  std::size_t i = 0;
  while (reader.next(decoded)) {
    ASSERT_LT(i, predicted.size());
    // The writer's cursor (taken while the frame was still buffered) must
    // equal the reader's decoded position — that is the replay contract.
    EXPECT_EQ(decoded.offset, predicted[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

TEST(TraceFormat, GoldenFilePin) {
  const std::string path = temp_path("golden.ftr");
  write_trace(path, golden_records(10000));
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 140629u);
  EXPECT_EQ(fnv1a(bytes), 0x995424e37ba0394cull);

  trace::TraceReader reader(path);
  trace::Record record;
  while (reader.next(record)) {
  }
  EXPECT_EQ(reader.records_read(), 10000u);
}

TEST(TraceFormat, CapturedRunBytesIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    const exp::RunResult result = run_point(s, 1);
    EXPECT_EQ(result.trace.files, 1u);
    EXPECT_GT(result.trace.records, 0.0);
    return read_file(path);
  };

  const std::string base = run_with(1, temp_path("id_s1.ftr"));
  EXPECT_EQ(base, run_with(2, temp_path("id_s2.ftr")));
  EXPECT_EQ(base, run_with(4, temp_path("id_s4.ftr")));
}

// The batch-channel pin: a monitored `large_torus` slice (the heaviest
// registered workload per round) must stream byte-identical traces at
// --shards 1 and 2, and ftgcs_trace's differ must agree. The run counter
// proves the batch runs actually carried traffic — without that
// assertion this would silently re-pin per-event dispatch alone.
TEST(TraceFormat, TorusMonitoredSliceIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    const exp::RunResult result = run_point(s, 1);
    EXPECT_EQ(result.trace.files, 1u);
    EXPECT_GT(result.trace.records, 0.0);
    // Pure-receive pulses went through the batch runs.
    EXPECT_GT(result.queue.ordered_run_events, 0u) << "shards=" << shards;
    return read_file(path);
  };

  const std::string path_s1 = temp_path("torus_s1.ftr");
  const std::string path_s2 = temp_path("torus_s2.ftr");
  const std::string base = run_with(1, path_s1);
  EXPECT_EQ(base, run_with(2, path_s2));

  const trace::TraceDiff diff = trace::diff_traces(path_s1, path_s2);
  EXPECT_TRUE(diff.identical) << diff.reason;
  EXPECT_GT(diff.records_compared, 0u);
}

// The Byzantine scheduling pin: every strategy, f = 1 faulty member per
// cluster, on a 16-cluster torus with --trace. Fired events, trace records
// and the FNV-1a hash of the trace bytes are pinned to values recorded
// when adversarial sends still ran as std::function closures, so the
// typed events that replaced them must replay them exactly. E4's grid
// sweeps only five of the eight strategies; window-edge, delay-jitter and
// random-pulser are pinned nowhere else.
TEST(TraceFormat, EveryStrategyTorusTracePinned) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {};
  apply_axis(spec, "clusters", 16.0);
  apply_axis(spec, "fault_mode", 1.0);

  const struct {
    const char* strategy;
    double events;
    std::uint64_t records;
    std::uint64_t hash;
  } pins[] = {
      {"silent", 149088, 123296, 0x91a49bbab951a578ull},
      {"random-pulser", 176711, 149900, 0xf103ec580ba35e50ull},
      {"two-faced", 165215, 131744, 0x98670d63e6141565ull},
      {"clock-liar", 158936, 132160, 0x4b2da1d2e58c49eeull},
      {"skew-pump", 164989, 131556, 0x447c73a51abe7370ull},
      {"equivocator", 165213, 131692, 0x6045f3d8d016bf59ull},
      {"window-edge", 164972, 131366, 0x19d4daa974b48512ull},
      {"delay-jitter", 165184, 131741, 0x02fed15e01abaec2ull},
  };
  for (int kind = 0; kind < 8; ++kind) {
    const auto& pin = pins[kind];
    ScenarioSpec s = spec;
    apply_axis(s, "strategy", kind);
    ASSERT_STREQ(byz::strategy_name(s.faults.strategy), pin.strategy);
    s.trace_path = temp_path(std::string("byz_") + pin.strategy + ".ftr");
    const exp::RunResult result = run_point(s, 1);
    const std::uint64_t hash = fnv1a(read_file(s.trace_path));
    EXPECT_EQ(result.metric("events"), pin.events) << pin.strategy;
    EXPECT_EQ(result.trace.records, pin.records) << pin.strategy;
    EXPECT_EQ(hash, pin.hash) << pin.strategy;
  }
}

// The bytes-per-event pin: broadcast fan-outs ride the ladder's 16 B
// narrow lane via coalesced group inserts, and the captured trace must
// stay byte-identical at shard counts 1 and 2. The narrow/group counter
// assertions prove the lane actually carried traffic — without them this
// would silently re-pin the wide path.
TEST(TraceFormat, TorusNarrowCoalescedLaneIdenticalAcrossShards) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    const exp::RunResult result = run_point(s, 1);
    EXPECT_EQ(result.trace.files, 1u);
    EXPECT_GT(result.trace.records, 0.0);
    EXPECT_GT(result.queue.narrow_events, 0.0) << "shards=" << shards;
    EXPECT_GT(result.queue.group_inserts, 0.0) << "shards=" << shards;
    return read_file(path);
  };

  const std::string path_s1 = temp_path("narrow_s1.ftr");
  const std::string path_s2 = temp_path("narrow_s2.ftr");
  EXPECT_EQ(run_with(1, path_s1), run_with(2, path_s2));

  const trace::TraceDiff diff = trace::diff_traces(path_s1, path_s2);
  EXPECT_TRUE(diff.identical) << diff.reason;
  EXPECT_GT(diff.records_compared, 0u);
}

// ---- commit() differential ------------------------------------------------
//
// TraceCollector::commit() sorts each shard buffer in place (insertion sort
// with a std::sort fallback) and streams a k-way merge into the writer. The
// reference below is the plain definition of the canonical stream:
// concatenate every shard, std::sort under record_key_less, write. Both
// must produce the same file bytes for every input shape.

enum class Shape { kNearSorted, kShuffled, kReversed };

/// One shard's captured deliveries for one commit window, in capture
/// order. Times overlap across shards so the merge interleaves them.
/// Near-sorted input has a few local swaps (up to 20 places) and some
/// exact time ties; the other shapes force the insertion sort past its
/// move budget.
std::vector<sim::BatchedEvent> shard_events(sim::Rng& rng, int n, double t0,
                                            Shape shape) {
  std::vector<sim::BatchedEvent> events(static_cast<std::size_t>(n));
  double now = t0;
  for (sim::BatchedEvent& event : events) {
    if (!rng.chance(0.01)) now += rng.uniform(0.0, 2.0 / n);
    event.at = now;
    event.payload.a = static_cast<std::int32_t>(rng.below(64));
    event.payload.b = static_cast<std::int32_t>(rng.below(8));
    event.payload.c = static_cast<std::int32_t>(rng.below(64));
    event.payload.d = static_cast<std::uint32_t>(rng.below(4));
    event.payload.x = rng.uniform(-1.0, 1.0);
  }
  switch (shape) {
    case Shape::kNearSorted:
      for (std::size_t i = 0; i + 1 < events.size(); ++i) {
        if (!rng.chance(0.02)) continue;
        const std::size_t j =
            std::min(events.size() - 1, i + 1 + rng.below(20));
        std::swap(events[i], events[j]);
      }
      break;
    case Shape::kShuffled:
      for (std::size_t i = events.size(); i > 1; --i) {
        std::swap(events[i - 1], events[rng.below(i)]);
      }
      break;
    case Shape::kReversed:
      std::reverse(events.begin(), events.end());
      break;
  }
  return events;
}

/// The shard buffers of one commit window.
using Window = std::vector<std::vector<sim::BatchedEvent>>;

/// What the capture tap stores for one delivery.
trace::Record captured(const sim::BatchedEvent& event) {
  trace::Record record;
  record.at = event.at;
  record.sender = event.payload.a;
  record.dest = event.payload.c;
  record.kind = static_cast<std::uint8_t>(event.payload.d);
  record.level = trace::kind_has_level(record.kind) ? event.payload.b : 0;
  record.value = trace::kind_has_value(record.kind) ? event.payload.x : 0.0;
  return record;
}

/// How the collector is driven: one commit() per window (the probe
/// boundary), or the sharded driver's stream — seal() after each window,
/// and commit_sealed() of the previous window while the next is captured.
enum class Drive { kCommitPerWindow, kStreamed };

/// Captures `windows` through a TraceCollector and through the reference,
/// and compares the two files byte for byte. Returns the collector's
/// buffer_peak.
std::uint64_t expect_commit_matches_reference(
    const std::vector<Window>& windows, const std::string& name,
    Drive drive = Drive::kCommitPerWindow) {
  const std::string path = temp_path(name + ".ftr");
  const std::string reference_path = temp_path(name + ".ref.ftr");
  std::uint64_t records = 0;
  std::uint64_t buffer_peak = 0;
  {
    trace::TraceCollector collector(path);
    for (const Window& window : windows) {
      if (drive == Drive::kStreamed) collector.commit_sealed();
      for (std::size_t s = 0; s < window.size(); ++s) {
        trace::TraceSink* sink = collector.shard_sink(static_cast<int>(s));
        // Mixed capture granularity: batches of up to 5, then singles.
        const std::vector<sim::BatchedEvent>& events = window[s];
        std::size_t i = 0;
        for (; i + 5 <= events.size() / 2; i += 5) {
          sink->on_delivery_batch(events.data() + i, 5);
        }
        for (; i < events.size(); ++i) {
          sink->on_delivery(events[i].at, events[i].payload);
        }
      }
      if (drive == Drive::kStreamed) {
        collector.seal();
      } else {
        collector.commit();
      }
    }
    collector.finish();
    records = collector.records();
    buffer_peak = collector.stats().buffer_peak;
  }
  {
    trace::TraceWriter writer(reference_path);
    for (const Window& window : windows) {
      std::vector<trace::Record> all;
      for (const auto& events : window) {
        for (const sim::BatchedEvent& event : events) {
          all.push_back(captured(event));
        }
      }
      std::sort(all.begin(), all.end(), trace::record_key_less);
      for (const trace::Record& record : all) writer.append(record);
    }
    writer.finish();
    EXPECT_EQ(records, writer.records()) << name;
  }
  EXPECT_GT(records, 0u) << name;
  const std::string bytes = read_file(path);
  const std::string reference = read_file(reference_path);
  const auto diverged =
      std::mismatch(bytes.begin(), bytes.end(), reference.begin(),
                    reference.end());
  EXPECT_TRUE(bytes == reference)
      << name << ": files differ from byte "
      << (diverged.first - bytes.begin()) << " (sizes " << bytes.size()
      << " vs " << reference.size() << ")";
  return buffer_peak;
}

/// Three commit windows (the middle one empty, to check that the XOR time
/// chain runs across commits) over `shards` shards; every third shard
/// stays empty.
std::vector<Window> windows_of(int shards, Shape shape, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Window> windows(3, Window(static_cast<std::size_t>(shards)));
  for (int w : {0, 2}) {
    for (int s = 0; s < shards; ++s) {
      if (s % 3 == 2) continue;
      windows[w][s] = shard_events(rng, 3000, 2.0 * w, shape);
    }
  }
  return windows;
}

TEST(TraceCommit, NearSortedShardsMatchReference) {
  for (int shards : {1, 2, 3, 8}) {
    expect_commit_matches_reference(
        windows_of(shards, Shape::kNearSorted, 40 + shards),
        "near_sorted_t" + std::to_string(shards));
  }
}

TEST(TraceCommit, ShuffledAndReversedShardsMatchReference) {
  for (int shards : {1, 2, 3, 8}) {
    expect_commit_matches_reference(
        windows_of(shards, Shape::kShuffled, 50 + shards),
        "shuffled_t" + std::to_string(shards));
    expect_commit_matches_reference(
        windows_of(shards, Shape::kReversed, 60 + shards),
        "reversed_t" + std::to_string(shards));
  }
  // One shard of each shape in the same commit.
  sim::Rng rng(70);
  const Window mixed = {shard_events(rng, 3000, 0.0, Shape::kNearSorted),
                        shard_events(rng, 3000, 0.0, Shape::kShuffled),
                        shard_events(rng, 3000, 0.0, Shape::kReversed)};
  expect_commit_matches_reference({mixed, mixed}, "mixed_shapes");
}

TEST(TraceCommit, DuplicateRecordsSplitAcrossShardsMatchReference) {
  sim::Rng rng(80);
  const std::vector<sim::BatchedEvent> base =
      shard_events(rng, 3000, 0.0, Shape::kNearSorted);
  std::vector<sim::BatchedEvent> every_other;
  std::vector<sim::BatchedEvent> doubled;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (i % 2 == 0) every_other.push_back(base[i]);
    doubled.push_back(base[i]);
    if (i % 7 == 0) doubled.push_back(base[i]);
  }
  const Window window = {base, base, every_other, doubled};
  expect_commit_matches_reference({window, window}, "duplicates");
}

// The sharded driver's stream: windows sealed one at a time and each
// committed while the next is captured write the same bytes as one commit
// per window, as long as the windows are disjoint in time (windows_of's
// are). The buffers then hold at most two windows at once.
TEST(TraceCommit, SealedWindowStreamMatchesReference) {
  for (int shards : {1, 2, 3, 8}) {
    for (Shape shape : {Shape::kNearSorted, Shape::kShuffled}) {
      const std::string name = "streamed_t" + std::to_string(shards) + "_" +
                               std::to_string(static_cast<int>(shape));
      const std::vector<Window> windows =
          windows_of(shards, shape, 90 + shards);
      const std::uint64_t per_window = expect_commit_matches_reference(
          windows, name + "_commit", Drive::kCommitPerWindow);
      const std::uint64_t streamed = expect_commit_matches_reference(
          windows, name, Drive::kStreamed);
      // Windows 0 and 2 hold the records, the middle one none: committed
      // one window at a time, the peak is one window either way.
      EXPECT_EQ(streamed, per_window) << name;
      EXPECT_GT(per_window, 0u) << name;
    }
  }
}

// Both drivers stream their capture about one safe window at a time, so
// with a single probe at the horizon the capture buffers still hold only
// a few windows' records, where a commit at the probe alone would hold
// them all. The file is the same either way.
TEST(TraceCommit, ShardedRunBuffersOnlyAFewWindows) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);
  spec.probe_interval_rounds = 1e9;  // one probe, at the horizon

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    return run_point(s, 1);
  };
  const exp::RunResult unsharded = run_with(1, temp_path("peak_s1.ftr"));
  const exp::RunResult sharded = run_with(2, temp_path("peak_s2.ftr"));
  ASSERT_GT(sharded.trace.records, 0u);
  EXPECT_EQ(sharded.trace.records, unsharded.trace.records);
  EXPECT_GT(unsharded.trace.buffer_peak, 0u);
  EXPECT_LT(unsharded.trace.buffer_peak * 10, unsharded.trace.records)
      << "buffer_peak=" << unsharded.trace.buffer_peak
      << " records=" << unsharded.trace.records;
  EXPECT_GT(sharded.trace.buffer_peak, 0u);
  EXPECT_LT(sharded.trace.buffer_peak * 10, sharded.trace.records)
      << "buffer_peak=" << sharded.trace.buffer_peak
      << " records=" << sharded.trace.records;
  EXPECT_EQ(read_file(temp_path("peak_s1.ftr")),
            read_file(temp_path("peak_s2.ftr")));
}

// A failed write is a typed error naming the file at every shard count,
// also when it happens in a commit the sharded driver overlaps with a
// window (the workers must still be released). /dev/full accepts the
// open and fails every write that reaches it. A hang aborts the test
// instead of waiting for the suite's timeout.
TEST(TraceFormat, FullDiskIsATypedErrorAtEveryShardCount) {
  if (std::FILE* probe = std::fopen("/dev/full", "wb")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "/dev/full is not available";
  }
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);
  spec.trace_path = "/dev/full";
  for (int shards : {1, 2, 4}) {
    spec.shards = shards;
    std::future<std::string> outcome =
        std::async(std::launch::async, [spec]() -> std::string {
          try {
            run_point(spec, 1);
          } catch (const std::runtime_error& error) {
            return error.what();
          }
          return "no error";
        });
    if (outcome.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "--trace /dev/full hung at shards=%d\n", shards);
      std::abort();
    }
    EXPECT_EQ(outcome.get(), "trace: short write to '/dev/full'")
        << "shards=" << shards;
  }
}

TEST(TraceFormat, DiffLocalizesSingleBitCorruption) {
  const std::string path_a = temp_path("diff_a.ftr");
  const std::string path_b = temp_path("diff_b.ftr");
  const std::vector<trace::Record> records = golden_records(500);
  std::vector<std::uint64_t> offsets;
  write_trace(path_a, records, &offsets);
  write_trace(path_b, records);

  ASSERT_TRUE(trace::diff_traces(path_a, path_b).identical);

  // Flip one bit in record 321's first byte (its kind tag). Every later
  // record garbles too (the XOR-delta time chain), but the report must
  // localize the FIRST divergence to exactly this record and offset.
  const std::uint64_t target = offsets[321];
  {
    std::fstream file(path_b,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(static_cast<std::streamoff>(target));
    file.put(byte);
  }

  const trace::TraceDiff diff = trace::diff_traces(path_a, path_b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.seq, 321u);
  EXPECT_EQ(diff.records_compared, 321u);
  EXPECT_EQ(diff.offset_a, target);
  EXPECT_EQ(diff.offset_b, target);
  EXPECT_FALSE(diff.reason.empty());
}

TEST(TraceFormat, ReaderRejectsTruncationAndBadMagic) {
  const std::string path = temp_path("trunc.ftr");
  write_trace(path, golden_records(100));
  std::string bytes = read_file(path);

  // Drop the trailer + end marker: decoding must fail loudly, not EOF.
  const std::string cut = path + ".cut";
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size() - 16));
  }
  trace::TraceReader reader(cut);
  trace::Record record;
  EXPECT_THROW(
      {
        while (reader.next(record)) {
        }
      },
      std::runtime_error);

  const std::string garbage = path + ".magic";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "NOTATRACE";
  }
  EXPECT_THROW(trace::TraceReader bad(garbage), std::runtime_error);
}

// A corrupt frame header must be rejected before the payload buffer is
// sized (one flipped high byte of the u32 length would otherwise ask for
// up to 4 GiB), and a record kind above kMaxKind must not decode as a
// level-less record. Each error names the offending offset.
TEST(TraceFormat, ReaderRejectsCorruptFrameHeaderAndKind) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes.clear();
  apply_axis(spec, "clusters", 8.0);
  apply_axis(spec, "horizon_rounds", 2.0);
  const std::string path = temp_path("corrupt_base.ftr");
  spec.trace_path = path;
  ASSERT_GT(run_point(spec, 1).trace.records, 0.0);
  const std::string bytes = read_file(path);
  // Header: magic [0, 8), first frame length [8, 12) and count [12, 16),
  // then the first record's kind byte at 16.
  ASSERT_GT(bytes.size(), 17u);
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = v << 8 | static_cast<unsigned char>(bytes[at + i]);
    }
    return v;
  };
  const std::uint32_t length = u32_at(8);
  ASSERT_LE(length, trace::kMaxFrameBytes);

  const auto read_error = [&](std::size_t at, std::uint32_t value,
                              int width) {
    std::string mutated = bytes;
    for (int i = 0; i < width; ++i) {
      mutated[at + i] = static_cast<char>(value >> (8 * i));
    }
    const std::string mutated_path = temp_path("corrupt.ftr");
    {
      std::ofstream out(mutated_path, std::ios::binary);
      out.write(mutated.data(), static_cast<std::streamoff>(mutated.size()));
    }
    try {
      trace::TraceReader reader(mutated_path);
      trace::Record record;
      while (reader.next(record)) {
      }
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const auto expect_error = [](const std::string& what,
                               const std::string& text) {
    EXPECT_NE(what.find(text), std::string::npos) << what;
  };

  const std::uint32_t too_long =
      static_cast<std::uint32_t>(trace::kMaxFrameBytes) + 1;
  const std::string long_frame = read_error(8, too_long, 4);
  expect_error(long_frame, "at offset 8: frame length " +
                               std::to_string(too_long) + " exceeds " +
                               std::to_string(trace::kMaxFrameBytes));

  expect_error(read_error(12, length + 1, 4),
               "at offset 8: frame record count " +
                   std::to_string(length + 1) + " exceeds its " +
                   std::to_string(length) + "-byte payload");

  expect_error(read_error(16, trace::kMaxKind + 1, 1),
               "at offset 16: unknown record kind 4");
}

}  // namespace
}  // namespace ftgcs
