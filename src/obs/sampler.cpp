#include "obs/sampler.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/assert.h"

namespace ftgcs::obs {

LogLinearHistogram::Spec ProbeSampler::scaled_spec(double scale) {
  FTGCS_EXPECTS(scale > 0.0);
  LogLinearHistogram::Spec spec;
  spec.linear_width = scale / 1000.0;
  spec.linear_max = scale / 10.0;
  spec.growth = 1.25;
  spec.max = scale * 64.0;
  return spec;
}

ProbeSampler::ProbeSampler(Config config, exp::TopologyGraph graph)
    : path_(config.path),
      graph_(std::move(graph)),
      measure_m_lag_(config.measure_m_lag) {
  FTGCS_EXPECTS(!path_.empty());
  const LogLinearHistogram::Spec spec = scaled_spec(config.hist_scale);

  // Fixed schema, registration order = serialization order. Only
  // run-invariant quantities — see the header comment.
  events_ = registry_.add_counter("events");
  messages_ = registry_.add_counter("messages");
  local_hist_ = registry_.add_histogram("local", spec);
  global_hist_ = registry_.add_histogram("global", spec);
  cluster_local_ = registry_.add_gauge("cluster_local");
  cluster_global_ = registry_.add_gauge("cluster_global");
  intra_max_ = registry_.add_gauge("intra_max");
  if (measure_m_lag_) m_lag_ = registry_.add_gauge("m_lag");
  if (config.monitors) {
    violations_ = registry_.add_counter("violations");
    // One min-margin gauge per ENABLED envelope family: margins of
    // disabled families are +inf (not JSON), so they are simply not part
    // of the schema — which stays fixed per run config.
    if (config.bounds.local_skew > 0.0) {
      margin_local_ = registry_.add_gauge("margin_local");
    }
    if (config.bounds.global_skew > 0.0) {
      margin_global_ = registry_.add_gauge("margin_global");
    }
    if (config.bounds.intra_cluster > 0.0) {
      margin_intra_ = registry_.add_gauge("margin_intra");
    }
    if (config.bounds.m_lag > 0.0) {
      margin_m_lag_ = registry_.add_gauge("margin_m_lag");
    }
  }

  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("metrics: cannot create '" + path_ + "'");
  }
  write_header(config);
}

ProbeSampler::~ProbeSampler() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; an explicit finish() reports the error.
  }
}

void ProbeSampler::write_header(const Config& config) {
  // The header carries the shape + bounds a reader needs to interpret
  // the series (ftgcs_report's convergence table divides by these).
  // Writing it in the constructor also forces stdio to allocate the
  // stream buffer now, before the allocation guard engages.
  std::size_t undirected_edges = 0;
  for (int v = 0; v < graph_.num_nodes(); ++v) {
    undirected_edges += graph_.neighbors(v).size();
  }
  undirected_edges /= 2;

  line_.clear();
  line_ += "{\"schema\":\"ftgcs-metrics-v1\",\"nodes\":";
  append_json_u64(line_, static_cast<std::uint64_t>(graph_.num_nodes()));
  line_ += ",\"clusters\":";
  append_json_u64(line_, static_cast<std::uint64_t>(graph_.num_clusters()));
  line_ += ",\"edges\":";
  append_json_u64(line_, undirected_edges);
  line_ += ",\"hist_scale\":";
  append_json_double(line_, config.hist_scale);
  line_ += ",\"bound_local\":";
  append_json_double(line_, config.monitors ? config.bounds.local_skew : 0.0);
  line_ += ",\"bound_global\":";
  append_json_double(line_, config.monitors ? config.bounds.global_skew : 0.0);
  line_ += ",\"bound_intra\":";
  append_json_double(line_,
                     config.monitors ? config.bounds.intra_cluster : 0.0);
  line_ += ",\"bound_m_lag\":";
  append_json_double(line_, config.monitors ? config.bounds.m_lag : 0.0);
  line_ += "}\n";
  std::fwrite(line_.data(), 1, line_.size(), file_);
  bytes_ += line_.size();
}

void ProbeSampler::prewarm() {
  line_.reserve(registry_.line_reserve_hint() + 64);
}

void ProbeSampler::sample(const SampleContext& ctx) {
  FTGCS_EXPECTS(ctx.skews != nullptr);
  FTGCS_EXPECTS(ctx.columns != nullptr);
  FTGCS_EXPECTS(file_ != nullptr);
  registry_.clear_histograms();

  const core::SystemColumns& cols = *ctx.columns;
  const int n = graph_.num_nodes();

  // Per-edge node-local skews (each undirected augmented edge once, from
  // its lower endpoint; crashed endpoints excluded like the ground
  // truth). The histogram's running max is then exactly the node-local
  // skew measure_skews reports.
  for (int v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (!cols.correct[sv]) continue;
    const double lv = cols.logical[sv];
    for (const int w : graph_.neighbors(v)) {
      if (w <= v) continue;
      const auto sw = static_cast<std::size_t>(w);
      if (!cols.correct[sw]) continue;
      local_hist_->record(std::fabs(lv - cols.logical[sw]));
    }
  }

  // Per-node offsets above the slowest correct clock; the max offset is
  // the node-global skew (spread of the correct ensemble).
  double min_logical = std::numeric_limits<double>::infinity();
  for (int v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (cols.correct[sv] && cols.logical[sv] < min_logical) {
      min_logical = cols.logical[sv];
    }
  }
  if (std::isfinite(min_logical)) {
    for (int v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (cols.correct[sv]) {
        global_hist_->record(cols.logical[sv] - min_logical);
      }
    }
  }

  events_->value = ctx.events;
  messages_->value = ctx.messages;
  cluster_local_->value = ctx.skews->cluster_local;
  cluster_global_->value = ctx.skews->cluster_global;
  intra_max_->value = ctx.skews->intra_cluster;
  if (m_lag_ != nullptr) m_lag_->value = ctx.m_lag;
  if (ctx.monitor != nullptr && violations_ != nullptr) {
    violations_->value = ctx.monitor->stats().violations;
    if (margin_local_ != nullptr) {
      margin_local_->value = ctx.monitor->local_margin();
    }
    if (margin_global_ != nullptr) {
      margin_global_->value = ctx.monitor->global_margin();
    }
    if (margin_intra_ != nullptr) {
      margin_intra_->value = ctx.monitor->intra_margin();
    }
    if (margin_m_lag_ != nullptr) {
      margin_m_lag_->value = ctx.monitor->m_lag_margin();
    }
  }

  ++probes_;
  line_.clear();
  line_ += "{\"t\":";
  append_json_double(line_, ctx.at);
  line_ += ",\"probe\":";
  append_json_u64(line_, probes_);
  registry_.append_fields(line_);
  line_ += "}\n";
  std::fwrite(line_.data(), 1, line_.size(), file_);
  bytes_ += line_.size();
}

void ProbeSampler::finish() {
  if (file_ == nullptr) return;
  // A failed fwrite in sample() (a full disk) sets the stream's error
  // flag; the final flush in fclose can fail too.
  const bool write_failed = std::ferror(file_) != 0;
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  if (write_failed || close_failed) {
    throw std::runtime_error("metrics: short write to '" + path_ + "'");
  }
}

}  // namespace ftgcs::obs
