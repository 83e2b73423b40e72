#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace sne::obs {

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(s[0])) return false;
  for (const char c : s)
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty() || s[0] == '_') return valid_metric_name(s);  // reserved __
  return valid_metric_name(s) && s.find(':') == std::string::npos;
}

/// Escapes a label value for the exposition format (backslash, quote,
/// newline) — the same escaping is JSON-compatible for these three.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_json(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `{k="v",...}` over canonical labels; empty string for no labels.
std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first;
    out += "=\"";
    out += escape_label(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Exposition/JSON number: exact integers print without a fraction, the
/// rest as their shortest round-trip form (a bucket edge of 0.1 prints
/// `le="0.1"`, identical in every process); +Inf prints per format.
std::string fmt_number(double v, bool json) {
  if (std::isinf(v)) return json ? "1e999" : (v > 0 ? "+Inf" : "-Inf");
  if (std::isnan(v)) return json ? "null" : "NaN";
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

}  // namespace

Labels canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!valid_label_name(labels[i].first))
      throw ConfigError("invalid metric label name '" + labels[i].first + "'");
    if (i > 0 && labels[i].first == labels[i - 1].first)
      throw ConfigError("duplicate metric label '" + labels[i].first + "'");
  }
  return labels;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i] > bounds_[i - 1]))
      throw ConfigError("histogram bounds must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

std::size_t bucket_index(std::span<const double> bounds, double v) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

void Histogram::observe(double v) {
  buckets_[bucket_index(bounds_, v)].fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS add: contended sums can lose ordering but never samples.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::set(std::span<const std::uint64_t> counts, double sum) {
  if (counts.size() != bounds_.size() + 1)
    throw ConfigError("histogram set: bucket count does not match bounds");
  for (std::size_t i = 0; i < counts.size(); ++i)
    buckets_[i].store(counts[i], std::memory_order_relaxed);
  sum_.store(sum, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    n += buckets_[i].load(std::memory_order_relaxed);
  return n;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry::Family& MetricsRegistry::family(
    const std::string& name, Type type, const std::string& help,
    const std::vector<double>* bounds) {
  if (!valid_metric_name(name))
    throw ConfigError("invalid metric name '" + name + "'");
  Family& fam = families_[name];
  if (fam.series.empty()) {
    fam.type = type;
    fam.help = help;
    if (bounds) fam.bounds = *bounds;
  } else {
    if (fam.type != type)
      throw ConfigError("metric '" + name +
                        "' already registered with a different type");
    if (bounds && fam.bounds != *bounds)
      throw ConfigError("histogram '" + name +
                        "' already registered with different bounds");
  }
  if (!help.empty() && fam.help.empty()) fam.help = help;
  return fam;
}

MetricsRegistry::Series& MetricsRegistry::series(Family& fam,
                                                 const Labels& labels) {
  const Labels canon = canonical_labels(labels);
  const std::string key = label_block(canon);
  auto it = fam.series.find(key);
  if (it == fam.series.end()) {
    auto s = std::make_unique<Series>();
    s->labels = canon;
    if (fam.type == Type::kHistogram)
      s->hist = std::make_unique<Histogram>(fam.bounds);
    it = fam.series.emplace(key, std::move(s)).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lk(m_);
  return series(family(name, Type::kCounter, help, nullptr), labels).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  std::lock_guard<std::mutex> lk(m_);
  return series(family(name, Type::kGauge, help, nullptr), labels).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const Labels& labels,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lk(m_);
  return *series(family(name, Type::kHistogram, help, &bounds), labels).hist;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lk(m_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty())
      out += "# HELP " + name + " " + fam.help + "\n";
    out += "# TYPE " + name + " ";
    out += fam.type == Type::kCounter
               ? "counter"
               : fam.type == Type::kGauge ? "gauge" : "histogram";
    out += "\n";
    for (const auto& [key, s] : fam.series) {
      switch (fam.type) {
        case Type::kCounter:
          out += name + key + " " + fmt_u64(s->counter.value()) + "\n";
          break;
        case Type::kGauge:
          out += name + key + " " + fmt_number(s->gauge.value(), false) + "\n";
          break;
        case Type::kHistogram: {
          const auto counts = s->hist->bucket_counts();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i <= fam.bounds.size(); ++i) {
            cum += counts[i];
            Labels with_le = s->labels;
            with_le.emplace_back(
                "le", i < fam.bounds.size() ? fmt_number(fam.bounds[i], false)
                                            : "+Inf");
            out += name + "_bucket" + label_block(canonical_labels(with_le)) +
                   " " + fmt_u64(cum) + "\n";
          }
          out += name + "_sum" + key + " " +
                 fmt_number(s->hist->sum(), false) + "\n";
          out += name + "_count" + key + " " + fmt_u64(cum) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::json_snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  std::string out = "{\"metrics\":[";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) out += ",";
    first_fam = false;
    out += "{\"name\":\"" + escape_json(name) + "\",\"type\":\"";
    out += fam.type == Type::kCounter
               ? "counter"
               : fam.type == Type::kGauge ? "gauge" : "histogram";
    out += "\",\"help\":\"" + escape_json(fam.help) + "\",\"series\":[";
    bool first_s = true;
    for (const auto& [key, s] : fam.series) {
      if (!first_s) out += ",";
      first_s = false;
      out += "{\"labels\":{";
      for (std::size_t i = 0; i < s->labels.size(); ++i) {
        if (i) out += ",";
        // Piecewise appends: GCC 12 flags `"..." + std::string&&` with a
        // false-positive -Wrestrict.
        out += '"';
        out += escape_json(s->labels[i].first);
        out += "\":\"";
        out += escape_json(s->labels[i].second);
        out += '"';
      }
      out += "}";
      switch (fam.type) {
        case Type::kCounter:
          out += ",\"value\":" + fmt_u64(s->counter.value());
          break;
        case Type::kGauge:
          out += ",\"value\":" + fmt_number(s->gauge.value(), true);
          break;
        case Type::kHistogram: {
          const auto counts = s->hist->bucket_counts();
          out += ",\"buckets\":[";
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i <= fam.bounds.size(); ++i) {
            if (i) out += ",";
            cum += counts[i];
            out += "{\"le\":";
            out += i < fam.bounds.size() ? fmt_number(fam.bounds[i], true)
                                         : "\"+Inf\"";
            out += ",\"count\":" + fmt_u64(cum) + "}";
          }
          out += "],\"sum\":" + fmt_number(s->hist->sum(), true) +
                 ",\"count\":" + fmt_u64(cum);
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(m_);
  families_.clear();
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return families_.size();
}

}  // namespace sne::obs
