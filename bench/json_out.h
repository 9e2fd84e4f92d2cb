// Machine-readable benchmark output.
//
// Every bench binary accepts --json=<path> and writes one JSON object there:
//
//   {"bench": "<name>",
//    "config": {...},                      // knobs the run used
//    "metrics": {..., "tables": [...]}}    // scalars + every printed table
//
// BenchMain (bench/common.h) parses the flag and writes the file after the
// bench body ran. bench/run_all.sh collects one file per binary.
#ifndef O1MEM_BENCH_JSON_OUT_H_
#define O1MEM_BENCH_JSON_OUT_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/support/table.h"

namespace o1mem {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

// `s` as a JSON string: escaped, between quotes.
inline std::string JsonQuote(const std::string& s) {
  std::string out(1, '"');
  out += JsonEscape(s);
  out += '"';
  return out;
}

// Wall-clock stopwatch for BenchJson::HostRegion. Host time only -- the
// simulated clock never sees it.
class HostTimer {
 public:
  HostTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

class BenchJson {
 public:
  // `path` is --json's value; without it every call below is a cheap no-op
  // and nothing is written.
  BenchJson(std::string bench, std::optional<std::string> path)
      : bench_(std::move(bench)), path_(std::move(path)) {
    config_.emplace_back("small", std::getenv("O1MEM_BENCH_SMALL") != nullptr ? "true" : "false");
  }

  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, JsonQuote(value));
  }
  void Config(const std::string& key, double value) { config_.emplace_back(key, NumStr(value)); }

  void Metric(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, JsonQuote(value));
  }
  void Metric(const std::string& key, double value) { metrics_.emplace_back(key, NumStr(value)); }

  // Host-side (wall-clock) throughput of one measured op loop. Two fields
  // per region: host_ns_per_op_<name> is a cost (lower is better), which
  // tools/bench_diff.py gates like any other ns series, and
  // host_ops_per_sec_<name> is the human-facing rate. These are the only
  // non-deterministic numbers in a bench JSON; bench_diff's --identical
  // mode skips the host_ prefix for that reason.
  void HostRegion(const std::string& name, uint64_t ops, double seconds) {
    if (ops == 0 || seconds <= 0.0) {
      return;
    }
    Metric("host_ns_per_op_" + name, seconds * 1e9 / static_cast<double>(ops));
    Metric("host_ops_per_sec_" + name, static_cast<double>(ops) / seconds);
  }

  // Prints `table` on stdout and mirrors it under metrics.tables.
  void Emit(const Table& table) {
    table.Print();
    AddTable(table);
  }

  // Mirrors a table (header row = columns) under metrics.tables.
  void AddTable(const Table& table) {
    const auto& rows = table.rows();
    std::string out = "{\"title\":\"" + JsonEscape(table.title()) + "\",\"columns\":[";
    if (!rows.empty()) {
      for (size_t i = 0; i < rows[0].size(); ++i) {
        out += (i != 0 ? ",\"" : "\"") + JsonEscape(rows[0][i]) + "\"";
      }
    }
    out += "],\"rows\":[";
    for (size_t r = 1; r < rows.size(); ++r) {
      out += r != 1 ? ",[" : "[";
      for (size_t i = 0; i < rows[r].size(); ++i) {
        out += (i != 0 ? ",\"" : "\"") + JsonEscape(rows[r][i]) + "\"";
      }
      out += "]";
    }
    out += "]}";
    tables_.push_back(std::move(out));
  }

  // Writes the collected JSON (call once, after all tables/metrics). False
  // when the file cannot be written.
  bool Write() const {
    if (!path_.has_value()) {
      return true;
    }
    std::FILE* f = std::fopen(path_->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_->c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"config\":{", JsonEscape(bench_).c_str());
    WritePairs(f, config_);
    std::fprintf(f, "},\"metrics\":{");
    WritePairs(f, metrics_);
    std::fprintf(f, "%s\"tables\":[", metrics_.empty() ? "" : ",");
    for (size_t i = 0; i < tables_.size(); ++i) {
      std::fprintf(f, "%s%s", i != 0 ? "," : "", tables_[i].c_str());
    }
    std::fprintf(f, "]}}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "cannot write %s\n", path_->c_str());
      return false;
    }
    return true;
  }

 private:
  static std::string NumStr(double v) {
    if (!std::isfinite(v)) {
      return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static void WritePairs(std::FILE* f, const std::vector<std::pair<std::string, std::string>>& p) {
    for (size_t i = 0; i < p.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%s", i != 0 ? "," : "", JsonEscape(p[i].first).c_str(),
                   p[i].second.c_str());
    }
  }

  std::string bench_;
  std::optional<std::string> path_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::string> tables_;
};

}  // namespace o1mem

#endif  // O1MEM_BENCH_JSON_OUT_H_
