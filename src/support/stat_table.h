// Run-diagnostic field tables. A diagnostic is declared once: a member of
// its producer's stats struct plus a row in the struct's
// `static constexpr auto fields()` table giving its name, aggregation,
// plane, `--timing` footer line and printf format. The shard and sweep
// merges, the footer, the `.profile` diag rows and the plane check in
// tests/test_timing_footer.cpp all walk kFields<S>. Table rows call
// `field` / `derived` unqualified; argument-dependent lookup on the Agg
// and Plane arguments finds them.
#pragma once

#include <type_traits>

namespace ftgcs::support {

enum class Agg : unsigned char {
  kSum,
  kMax,
  kMin,  ///< an absent value is +inf, the identity
  /// A group taken whole from the first contributor, in merge order,
  /// whose key (the group's first row) is nonzero.
  kFirst,
  /// A group describing memory held at one moment. Shards of one run
  /// coexist, so their footprints add; tasks of a sweep run one after
  /// another, so the group comes whole from the task with the largest
  /// key (the group's first row; the earlier task wins a tie).
  kFootprint,
  kDerived,  ///< computed from the other members, never merged
};

enum class Plane : unsigned char {
  kDeterministic,  ///< a function of scenario + seed, on any engine/shards
  kEngine,         ///< deterministic, but engine- or shard-count-dependent
  kWallClock,
};

/// What a merge combines: the coexisting shards of one run, or tasks.
enum class Scope : unsigned char { kShards, kTasks };

template <class S>
struct Stat {
  const char* name;
  Agg agg;
  Plane plane;
  /// `--timing` footer line (numeric rows only); nullptr = not printed.
  const char* line;
  const char* format;  ///< printf conversion of the value
  double (*get)(const S&);  ///< nullptr for a non-numeric member
  /// into ⊕= from for kSum/kMax/kMin, a copy otherwise; nullptr if derived.
  void (*merge)(S& into, const S& from, Agg op);
};

template <auto Member>
struct MemberAccess;

/// Reads and merges a data member, or reads a const member function
/// (T is then a function type).
template <class S, class T, T S::*Member>
struct MemberAccess<Member> {
  using Struct = S;
  static constexpr bool kNumeric = std::is_arithmetic_v<T>;
  static double get(const S& s) {
    if constexpr (std::is_function_v<T>) {
      return static_cast<double>((s.*Member)());
    } else {
      return static_cast<double>(s.*Member);
    }
  }
  static void merge(S& into, const S& from, Agg op) {
    T& a = into.*Member;
    const T& b = from.*Member;
    if constexpr (kNumeric && !std::is_same_v<T, bool>) {
      if (op == Agg::kSum) {
        a += b;
        return;
      }
      if (op == Agg::kMax || op == Agg::kMin) {
        if (op == Agg::kMax ? a < b : b < a) a = b;
        return;
      }
    }
    a = b;
  }
};

template <auto Member>
constexpr auto field(const char* name, Agg agg, Plane plane,
                     const char* line, const char* format = "%.0f") {
  using Access = MemberAccess<Member>;
  using S = typename Access::Struct;
  double (*get)(const S&) = nullptr;
  if constexpr (Access::kNumeric) get = &Access::get;
  return Stat<S>{name, agg, plane, line, format, get, &Access::merge};
}

/// A row read through a const member function of the stats struct.
template <auto Fn>
constexpr auto derived(const char* name, Plane plane, const char* line,
                       const char* format = "%.0f") {
  using Access = MemberAccess<Fn>;
  return Stat<typename Access::Struct>{
      name, Agg::kDerived, plane, line, format, &Access::get, nullptr};
}

template <class S>
inline constexpr auto kFields = S::fields();

/// Merges `from` into `into` row by row. A group's decision is taken at
/// its key, before any of the group's members change.
template <class S>
void merge(S& into, const S& from, Scope scope) {
  int take_first = -1;  // -1 = not yet decided
  int take_footprint = -1;
  for (const Stat<S>& stat : kFields<S>) {
    if (stat.agg == Agg::kFirst) {
      if (take_first < 0) {
        take_first = stat.get(into) == 0.0 && stat.get(from) != 0.0;
      }
      if (take_first == 1) stat.merge(into, from, Agg::kFirst);
    } else if (stat.agg == Agg::kFootprint) {
      if (take_footprint < 0) {
        take_footprint = scope == Scope::kTasks &&
                         stat.get(from) > stat.get(into);
      }
      if (scope == Scope::kShards) {
        stat.merge(into, from, Agg::kSum);
      } else if (take_footprint == 1) {
        stat.merge(into, from, Agg::kFootprint);
      }
    } else if (stat.merge != nullptr) {
      stat.merge(into, from, stat.agg);
    }
  }
}

}  // namespace ftgcs::support
