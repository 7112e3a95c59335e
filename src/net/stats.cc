#include "net/stats.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace mptcp {

uint64_t Histogram::approx_percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && buckets_[i] > 0) {
      return i == 0 ? 0 : uint64_t{1} << i;
    }
  }
  return max_;
}

void Histogram::merge_from(const Histogram& o) {
  if (o.count_ == 0) return;
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

uint64_t FineHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && buckets_[i] > 0) {
      return bucket_floor(i);
    }
  }
  return max_;
}

void FineHistogram::merge_from(const FineHistogram& o) {
  if (o.count_ == 0) return;
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

// The transparent find keeps the lookup-of-existing path allocation-free:
// connection constructors re-resolve loop-global names ("tcp.retransmits")
// without materializing a std::string per call.
StatsRegistry::Entry& StatsRegistry::entry(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(name, Entry{}).first;
  return it->second;
}

Counter& StatsRegistry::counter(std::string_view name) {
  Entry& e = entry(name);
  if (!e.counter) {
    e = Entry{};
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& StatsRegistry::gauge(std::string_view name) {
  Entry& e = entry(name);
  if (!e.gauge) {
    e = Entry{};
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  Entry& e = entry(name);
  if (!e.hist) {
    e = Entry{};
    e.hist = std::make_unique<Histogram>();
  }
  return *e.hist;
}

FineHistogram& StatsRegistry::fine_histogram(std::string_view name) {
  Entry& e = entry(name);
  if (!e.fine) {
    e = Entry{};
    e.fine = std::make_unique<FineHistogram>();
  }
  return *e.fine;
}

void StatsRegistry::sampled(const std::string& name, SampleFn fn) {
  Entry& e = entries_[name];
  e = Entry{};
  e.fn = std::move(fn);
}

void StatsRegistry::sampled_group(const std::string& scope, GroupFn fn) {
  Entry& e = entries_[scope];
  e = Entry{};
  e.group = std::move(fn);
}

std::string StatsRegistry::unique_scope(const std::string& base) {
  const std::string tagged = base + scope_tag_;
  const int n = ++scope_counts_[tagged];
  if (n == 1) return tagged;
  return tagged + "#" + std::to_string(n);
}

size_t StatsRegistry::remove_scope(std::string_view scope) {
  // '#' sorts before '.', so "scope#2.x" entries (another instance's
  // scope) are interleaved between "scope" and "scope.x": skip them
  // instead of stopping at the first non-match.
  size_t dropped = 0;
  auto it = entries_.lower_bound(scope);
  while (it != entries_.end()) {
    const std::string& name = it->first;
    if (name.compare(0, scope.size(), scope) != 0) break;  // left the prefix
    const bool exact = name.size() == scope.size();
    const bool child = name.size() > scope.size() && name[scope.size()] == '.';
    if (exact || child) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void StatsRegistry::remove(std::string_view name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) entries_.erase(it);
}

bool StatsRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

const Counter* StatsRegistry::find_counter(std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.counter.get();
}

double StatsRegistry::value(std::string_view flat_key) const {
  auto it = entries_.find(flat_key);
  if (it != entries_.end()) {
    const Entry& e = it->second;
    if (e.counter) return static_cast<double>(e.counter->value());
    if (e.gauge) return static_cast<double>(e.gauge->value());
    if (e.fn) return e.fn();
  }
  // Histogram sub-keys: "<name>.<field>".
  const size_t dot = flat_key.rfind('.');
  if (dot == std::string_view::npos) return 0.0;
  const auto owner = entries_.find(flat_key.substr(0, dot));
  const Entry* he = owner == entries_.end() ? nullptr : &owner->second;
  if (const Histogram* h = he != nullptr ? he->hist.get() : nullptr) {
    const std::string_view field = flat_key.substr(dot + 1);
    if (field == "count") return static_cast<double>(h->count());
    if (field == "sum") return static_cast<double>(h->sum());
    if (field == "min") return static_cast<double>(h->min());
    if (field == "max") return static_cast<double>(h->max());
    if (field == "mean") return h->mean();
    return 0.0;
  }
  if (const FineHistogram* h = he != nullptr ? he->fine.get() : nullptr) {
    const std::string_view field = flat_key.substr(dot + 1);
    if (field == "count") return static_cast<double>(h->count());
    if (field == "sum") return static_cast<double>(h->sum());
    if (field == "min") return static_cast<double>(h->min());
    if (field == "max") return static_cast<double>(h->max());
    if (field == "mean") return h->mean();
    if (field == "p50") return static_cast<double>(h->percentile(0.5));
    if (field == "p99") return static_cast<double>(h->percentile(0.99));
    if (field == "p999") return static_cast<double>(h->percentile(0.999));
    return 0.0;
  }
  // Group sub-keys: try successively shorter "scope" prefixes and ask the
  // group for the remaining suffix. Export path only -- O(depth) lookups.
  class FindSink final : public SampleSink {
   public:
    explicit FindSink(std::string_view want) : want_(want) {}
    void emit(std::string_view name, double value) override {
      if (name == want_) {
        found_ = value;
        hit_ = true;
      }
    }
    bool hit() const { return hit_; }
    double found() const { return found_; }

   private:
    std::string_view want_;
    double found_ = 0.0;
    bool hit_ = false;
  };
  for (size_t pos = dot; pos != std::string_view::npos && pos > 0;
       pos = flat_key.rfind('.', pos - 1)) {
    auto git = entries_.find(flat_key.substr(0, pos));
    if (git == entries_.end() || !git->second.group) continue;
    FindSink sink(flat_key.substr(pos + 1));
    git->second.group(sink);
    return sink.hit() ? sink.found() : 0.0;
  }
  return 0.0;
}

std::map<std::string, double> StatsRegistry::flatten() const {
  std::map<std::string, double> out;
  for (const auto& [name, e] : entries_) {
    if (e.counter) {
      out[name] = static_cast<double>(e.counter->value());
    } else if (e.gauge) {
      out[name] = static_cast<double>(e.gauge->value());
    } else if (e.hist) {
      out[name + ".count"] = static_cast<double>(e.hist->count());
      out[name + ".sum"] = static_cast<double>(e.hist->sum());
      out[name + ".min"] = static_cast<double>(e.hist->min());
      out[name + ".max"] = static_cast<double>(e.hist->max());
      out[name + ".mean"] = e.hist->mean();
    } else if (e.fine) {
      out[name + ".count"] = static_cast<double>(e.fine->count());
      out[name + ".sum"] = static_cast<double>(e.fine->sum());
      out[name + ".min"] = static_cast<double>(e.fine->min());
      out[name + ".max"] = static_cast<double>(e.fine->max());
      out[name + ".mean"] = e.fine->mean();
      out[name + ".p50"] = static_cast<double>(e.fine->percentile(0.5));
      out[name + ".p99"] = static_cast<double>(e.fine->percentile(0.99));
      out[name + ".p999"] = static_cast<double>(e.fine->percentile(0.999));
    } else if (e.fn) {
      out[name] = e.fn();
    } else if (e.group) {
      class MapSink final : public SampleSink {
       public:
        MapSink(std::map<std::string, double>& out, const std::string& scope)
            : out_(out), scope_(scope) {}
        void emit(std::string_view name, double value) override {
          std::string key;
          key.reserve(scope_.size() + 1 + name.size());
          key += scope_;
          key += '.';
          key += name;
          out_[std::move(key)] = value;
        }

       private:
        std::map<std::string, double>& out_;
        const std::string& scope_;
      };
      MapSink sink(out, name);
      e.group(sink);
    }
  }
  return out;
}

namespace {

std::string flat_to_json(const std::map<std::string, double>& flat) {
  std::string out = "{\n";
  char buf[64];
  size_t i = 0;
  for (const auto& [name, v] : flat) {
    // %.17g round-trips every finite double through strtod.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "  \"";
    out += name;
    out += "\": ";
    out += buf;
    out += ++i < flat.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

}  // namespace

std::string StatsRegistry::to_json() const { return flat_to_json(flatten()); }

std::map<std::string, double> StatsRegistry::merged_flatten(
    std::span<const StatsRegistry* const> parts) {
  std::map<std::string, double> out;
  // Histograms accumulate here first so a name present in several
  // partitions expands once, from the union of samples, instead of
  // summing per-partition means/mins.
  std::map<std::string, Histogram> hists;
  std::map<std::string, FineHistogram> fines;

  class AddSink final : public SampleSink {
   public:
    AddSink(std::map<std::string, double>& out, const std::string& scope)
        : out_(out), scope_(scope) {}
    void emit(std::string_view name, double value) override {
      std::string key;
      key.reserve(scope_.size() + 1 + name.size());
      key += scope_;
      key += '.';
      key += name;
      out_[std::move(key)] += value;
    }

   private:
    std::map<std::string, double>& out_;
    const std::string& scope_;
  };

  for (const StatsRegistry* part : parts) {
    for (const auto& [name, e] : part->entries_) {
      if (e.counter) {
        out[name] += static_cast<double>(e.counter->value());
      } else if (e.gauge) {
        out[name] += static_cast<double>(e.gauge->value());
      } else if (e.hist) {
        hists[name].merge_from(*e.hist);
      } else if (e.fine) {
        fines[name].merge_from(*e.fine);
      } else if (e.fn) {
        out[name] += e.fn();
      } else if (e.group) {
        AddSink sink(out, name);
        e.group(sink);
      }
    }
  }
  for (const auto& [name, h] : hists) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".sum"] = static_cast<double>(h.sum());
    out[name + ".min"] = static_cast<double>(h.min());
    out[name + ".max"] = static_cast<double>(h.max());
    out[name + ".mean"] = h.mean();
  }
  for (const auto& [name, h] : fines) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".sum"] = static_cast<double>(h.sum());
    out[name + ".min"] = static_cast<double>(h.min());
    out[name + ".max"] = static_cast<double>(h.max());
    out[name + ".mean"] = h.mean();
    out[name + ".p50"] = static_cast<double>(h.percentile(0.5));
    out[name + ".p99"] = static_cast<double>(h.percentile(0.99));
    out[name + ".p999"] = static_cast<double>(h.percentile(0.999));
  }
  return out;
}

std::string StatsRegistry::merged_to_json(
    std::span<const StatsRegistry* const> parts) {
  return flat_to_json(merged_flatten(parts));
}

std::map<std::string, double> StatsRegistry::parse_flat_json(
    std::string_view json) {
  std::map<std::string, double> out;
  size_t i = 0;
  const size_t n = json.size();
  while (i < n) {
    // Next key.
    while (i < n && json[i] != '"') ++i;
    if (i >= n) break;
    const size_t key_begin = ++i;
    while (i < n && json[i] != '"') ++i;
    if (i >= n) break;
    const std::string key(json.substr(key_begin, i - key_begin));
    ++i;  // closing quote
    while (i < n && (json[i] == ':' || std::isspace(
                                           static_cast<unsigned char>(json[i]))))
      ++i;
    if (i >= n) break;
    char* end = nullptr;
    const std::string num(json.substr(i, n - i));
    const double v = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) break;  // not a number: malformed, stop
    out[key] = v;
    i += static_cast<size_t>(end - num.c_str());
  }
  return out;
}

}  // namespace mptcp
