#include "common.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"

namespace vizcache::bench {

struct JsonObject::Entry {
  enum class Kind { kNumber, kInteger, kBoolean, kString, kObject };
  std::string key;
  Kind kind = Kind::kNumber;
  double num = 0.0;
  i64 integer = 0;
  bool boolean = false;
  std::string str;
  std::unique_ptr<JsonObject> obj;
};

JsonObject::JsonObject() = default;
JsonObject::~JsonObject() = default;
JsonObject::JsonObject(JsonObject&&) noexcept = default;
JsonObject& JsonObject::operator=(JsonObject&&) noexcept = default;

JsonObject& JsonObject::number(const std::string& key, double value) {
  Entry e;
  e.key = key;
  e.kind = Entry::Kind::kNumber;
  e.num = value;
  entries_.push_back(std::move(e));
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, i64 value) {
  Entry e;
  e.key = key;
  e.kind = Entry::Kind::kInteger;
  e.integer = value;
  entries_.push_back(std::move(e));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  Entry e;
  e.key = key;
  e.kind = Entry::Kind::kBoolean;
  e.boolean = value;
  entries_.push_back(std::move(e));
  return *this;
}

JsonObject& JsonObject::string(const std::string& key,
                               const std::string& value) {
  Entry e;
  e.key = key;
  e.kind = Entry::Kind::kString;
  e.str = value;
  entries_.push_back(std::move(e));
  return *this;
}

JsonObject& JsonObject::object(const std::string& key, JsonObject value) {
  Entry e;
  e.key = key;
  e.kind = Entry::Kind::kObject;
  e.obj = std::make_unique<JsonObject>(std::move(value));
  entries_.push_back(std::move(e));
  return *this;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c));
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

std::string JsonObject::render(usize depth) const {
  const std::string pad(2 * (depth + 1), ' ');
  std::string out = "{";
  for (usize i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += i == 0 ? "\n" : ",\n";
    out += pad + "\"" + json_escape(e.key) + "\": ";
    switch (e.kind) {
      case Entry::Kind::kNumber: out += json_number(e.num); break;
      case Entry::Kind::kInteger: out += std::to_string(e.integer); break;
      case Entry::Kind::kBoolean: out += e.boolean ? "true" : "false"; break;
      case Entry::Kind::kString:
        out += "\"" + json_escape(e.str) + "\"";
        break;
      case Entry::Kind::kObject: out += e.obj->render(depth + 1); break;
    }
  }
  if (!entries_.empty()) out += "\n" + std::string(2 * depth, ' ');
  out += "}";
  return out;
}

std::string JsonObject::to_string() const { return render(0); }

void JsonObject::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot open JSON output for writing: " + path);
  out << to_string() << "\n";
  if (!out) throw IoError("JSON write failed: " + path);
}

BenchEnv BenchEnv::parse(const std::string& name, int argc,
                         const char* const* argv) {
  BenchEnv env;
  env.name = name;
  env.cfg = Config::from_args(argc, argv);
  env.scale = env.cfg.get_double("scale", env.scale);
  env.positions = static_cast<usize>(
      env.cfg.get_int("positions", static_cast<i64>(env.positions)));
  env.seed = static_cast<u64>(env.cfg.get_int("seed", 42));
  env.quick = env.cfg.get_bool("quick", false);
  if (env.quick) {
    env.positions = std::min<usize>(env.positions, 100);
  }
  Log::set_level(LogLevel::kWarn);
  return env;
}

CsvWriter BenchEnv::open_csv(const std::vector<std::string>& columns) const {
  const std::string path = cfg.get_string("csv", "bench_" + name + ".csv");
  std::cout << "# csv -> " << path << "\n";
  return CsvWriter(path, columns);
}

void BenchEnv::banner(const std::string& what) const {
  std::cout << "# vizcache bench: " << name << "\n"
            << "# " << what << "\n"
            << "# scale=" << scale << " positions=" << positions
            << " seed=" << seed << (quick ? " quick=1" : "") << "\n";
}

JsonObject metrics_snapshot_json(const MetricsSnapshot& snapshot) {
  JsonObject counters;
  for (const auto& c : snapshot.counters) {
    counters.integer(c.name, static_cast<i64>(c.value));
  }
  JsonObject gauges;
  for (const auto& g : snapshot.gauges) {
    gauges.number(g.name, g.value);
  }
  JsonObject histograms;
  for (const auto& h : snapshot.histograms) {
    JsonObject buckets;
    for (usize i = 0; i < h.hist.buckets.size(); ++i) {
      std::string label =
          i < h.hist.bounds.size() ? "le_" + json_number(h.hist.bounds[i])
                                   : std::string("le_inf");
      buckets.integer(label, static_cast<i64>(h.hist.buckets[i]));
    }
    JsonObject one;
    one.integer("count", static_cast<i64>(h.hist.count))
        .number("sum", h.hist.sum)
        .number("min", h.hist.min)
        .number("max", h.hist.max)
        .object("buckets", std::move(buckets));
    histograms.object(h.name, std::move(one));
  }
  JsonObject out;
  out.object("counters", std::move(counters))
      .object("gauges", std::move(gauges))
      .object("histograms", std::move(histograms));
  return out;
}

void write_observability(const std::string& stem, const StepTimeline& timeline,
                         const MetricsSnapshot& snapshot) {
  const std::string trace_path = stem + ".trace.json";
  const std::string metrics_path = stem + ".metrics.json";
  timeline.write_chrome_trace(trace_path);
  metrics_snapshot_json(snapshot).write(metrics_path);
  std::cout << "# trace -> " << trace_path << "\n"
            << "# metrics -> " << metrics_path << "\n";
}

CameraPath random_path(double lo_deg, double hi_deg, usize positions,
                       u64 seed) {
  RandomPathSpec spec;
  spec.step_min_deg = lo_deg;
  spec.step_max_deg = hi_deg;
  spec.positions = positions;
  spec.seed = seed;
  return make_random_path(spec);
}

CameraPath spherical_path(double step_deg, usize positions) {
  SphericalPathSpec spec;
  spec.step_deg = step_deg;
  spec.positions = positions;
  return make_spherical_path(spec);
}

std::string degree_range_label(double lo, double hi) {
  std::ostringstream os;
  os << lo << "-" << hi;
  return os.str();
}

}  // namespace vizcache::bench
