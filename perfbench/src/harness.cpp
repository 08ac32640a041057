#include "harness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/joinability.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void RunReport::Fail(const std::string& why) {
  correct = false;
  std::cerr << "INCORRECT: " << why << "\n";
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(const RunReport& report) {
  std::ostringstream os;
  os << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) os << ", ";
    os << "\"" << mate::JsonEscape(m.name) << "\": {\"value\": "
       << JsonNumber(m.value) << ", \"unit\": \"" << mate::JsonEscape(m.unit)
       << "\"}";
  }
  os << "}}";
  return os.str();
}

void PrintMetricTable(const RunReport& report, const std::string& title) {
  std::cout << "== " << title << " ==\n";
  for (const Metric& m : report.metrics) {
    std::cout << "  " << std::left << std::setw(38) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(6) << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << std::right << "\n";
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::cout << "  " << std::left << std::setw(38) << "failed_frac"
            << std::right << std::setw(16) << failed_frac << " "
            << std::left << std::setw(6) << "frac"
            << " (n=" << report.attempted << ")" << std::right << "\n";
}

// ---- digests ----------------------------------------------------------------

void Digest::Raw(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001B3ULL;
  }
}

void Digest::U64(uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  Raw(bytes, sizeof(bytes));
}

void Digest::Bytes(std::string_view s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void DigestTable(const mate::Table& table, Digest* d) {
  d->Bytes(table.name());
  d->U64(table.NumColumns());
  d->U64(table.NumRows());
  for (mate::ColumnId c = 0; c < table.NumColumns(); ++c) {
    d->Bytes(table.column_name(c));
  }
  for (mate::RowId r = 0; r < table.NumRows(); ++r) {
    d->U64(table.IsRowDeleted(r) ? 1 : 0);
    for (mate::ColumnId c = 0; c < table.NumColumns(); ++c) {
      d->Bytes(table.cell(r, c));
    }
  }
}

void DigestCorpus(const mate::Corpus& corpus, Digest* d) {
  d->U64(corpus.NumTables());
  for (mate::TableId t = 0; t < corpus.NumTables(); ++t) {
    DigestTable(corpus.table(t), d);
  }
}

void DigestTopK(const std::vector<mate::TableResult>& top_k, Digest* d) {
  d->U64(top_k.size());
  for (const mate::TableResult& r : top_k) {
    d->U64(r.table_id);
    d->U64(static_cast<uint64_t>(r.joinability));
    d->U64(r.best_mapping.size());
    for (mate::ColumnId c : r.best_mapping) d->U64(c);
  }
}

void CheckPinnedDigests(const RunArgs& args, const std::string& input_hex,
                        const std::string& reference_hex, RunReport* report) {
  std::cout << "digests: workload=" << args.workload << " seed=" << args.seed
            << " input=" << input_hex << " reference=" << reference_hex
            << "\n";
  if (args.seed != kDefaultSeed) return;
  std::ifstream in(args.pinned_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, input, reference;
    uint64_t seed = 0;
    if (!(fields >> workload >> seed >> input >> reference)) continue;
    if (workload != args.workload || seed != args.seed) continue;
    if (input != input_hex) {
      report->Fail("input digest " + input_hex + " differs from the pinned " +
                   input + ": the generated lake, queries or request "
                   "sequence changed");
    }
    if (reference != reference_hex) {
      report->Fail("reference digest " + reference_hex +
                   " differs from the pinned " + reference +
                   ": the reference top-k changed");
    }
    return;
  }
  std::cout << "digests: no pin for " << args.workload << " seed "
            << args.seed << " in " << args.pinned_path << "\n";
}

// ---- correctness ------------------------------------------------------------

bool SameTopK(const std::vector<mate::TableResult>& a,
              const std::vector<mate::TableResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table_id != b[i].table_id ||
        a[i].joinability != b[i].joinability ||
        a[i].best_mapping != b[i].best_mapping) {
      return false;
    }
  }
  return true;
}

bool SameServedTopK(const std::vector<mate::ServedResult>& served,
                    const std::vector<mate::TableResult>& expected) {
  if (served.size() != expected.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].table_id != expected[i].table_id ||
        served[i].joinability != expected[i].joinability ||
        served[i].mapping != expected[i].best_mapping) {
      return false;
    }
  }
  return true;
}

bool MatchesBruteForce(const mate::Corpus& lake, const mate::Table& query,
                       const std::vector<mate::ColumnId>& key_columns,
                       const std::vector<mate::TableResult>& top_k,
                       std::string* why) {
  for (const mate::TableResult& r : top_k) {
    const mate::BruteForceResult truth = mate::BruteForceJoinability(
        query, key_columns, lake.table(r.table_id));
    if (truth.joinability != r.joinability) {
      *why = "table " + std::to_string(r.table_id) + " scored " +
             std::to_string(r.joinability) + ", brute force says " +
             std::to_string(truth.joinability);
      return false;
    }
  }
  return true;
}

// ---- statistics -------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_ms);
  return out;
}

WindowedStats MedianOverWindows(const std::vector<Sample>& samples,
                                double wall_s, size_t windows) {
  WindowedStats out;
  if (samples.empty() || !(wall_s > 0)) return out;
  out.windows = std::max<size_t>(1, windows);
  const double span = wall_s / static_cast<double>(out.windows);
  std::vector<std::vector<double>> latency(out.windows);
  std::vector<uint64_t> completed(out.windows, 0);
  for (const Sample& s : samples) {
    const size_t w = std::min(out.windows - 1,
                              static_cast<size_t>(std::max(0.0, s.done_s) /
                                                  span));
    latency[w].push_back(s.latency_ms);
    if (s.ok) ++completed[w];
  }
  std::vector<double> p50;
  for (size_t w = 0; w < out.windows; ++w) {
    out.window_qps.push_back(static_cast<double>(completed[w]) / span);
    p50.push_back(Percentile(latency[w], 0.50));
    out.window_p90_ms.push_back(Percentile(latency[w], 0.90));
  }
  out.qps = Median(out.window_qps);
  out.p50_ms = Median(p50);
  out.p90_ms = Median(out.window_p90_ms);
  return out;
}

// ---- host -------------------------------------------------------------------

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    times.total += v;
    if (field == 7) times.steal = v;
  }
  return times;
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

std::string HostRecordJson(const RunArgs& args, double steal_fraction) {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size()) {
          cpu_model = line.substr(colon + 2);
        }
        break;
      }
    }
  }
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": \"" << mate::JsonEscape(cpu_model)
     << "\", \"simd\": \""
     << mate::simd::LevelName(mate::simd::ActiveLevel())
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"git_sha\": \"" << mate::JsonEscape(args.git_sha)
     << "\", \"src_digest\": \"" << mate::JsonEscape(args.src_digest)
     << "\", \"cpu_steal_frac\": " << JsonNumber(steal_fraction) << "}";
  return os.str();
}

// ---- files ------------------------------------------------------------------

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

mate::Corpus CopyCorpus(const mate::Corpus& corpus) {
  mate::Corpus copy;
  for (mate::TableId t = 0; t < corpus.NumTables(); ++t) {
    copy.AddTable(corpus.table(t));
  }
  return copy;
}

uint64_t LakeCellBytes(const mate::Corpus& corpus) {
  uint64_t bytes = 0;
  for (mate::TableId t = 0; t < corpus.NumTables(); ++t) {
    bytes += corpus.table_cell_bytes(t);
  }
  return bytes;
}

// ---- traced run -------------------------------------------------------------

void SpanTotals::Add(const std::vector<mate::TraceSpan>& spans) {
  const std::vector<uint64_t> self = mate::SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = self_us_.find(spans[i].name);
    if (it == self_us_.end()) it = self_us_.emplace(spans[i].name, 0).first;
    it->second += self[i];
  }
  ++traces_;
}

namespace {

// Minimal reader for the flat objects of a slow-query log line's "spans"
// array: string and integer fields, no nesting.
class FlatJsonCursor {
 public:
  explicit FlatJsonCursor(std::string_view s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n')) ++pos_;
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out->push_back(s_[pos_++]);
    }
    return Consume('"');
  }
  /// A number or string value; numbers land in *number.
  bool Value(std::string* text, int64_t* number) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '"') return String(text);
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') ++pos_;
    text->assign(s_.substr(start, pos_ - start));
    *number = std::strtoll(text->c_str(), nullptr, 10);
    return pos_ > start;
  }
  bool Seek(std::string_view token) {
    const size_t at = s_.find(token, pos_);
    if (at == std::string_view::npos) return false;
    pos_ = at + token.size();
    return true;
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

bool SpanTotals::AddJsonLine(std::string_view line) {
  FlatJsonCursor cur(line);
  if (!cur.Seek("\"spans\":[")) return false;
  std::vector<mate::TraceSpan> spans;
  if (cur.Consume(']')) {
    Add(spans);
    return true;
  }
  do {
    if (!cur.Consume('{')) return false;
    mate::TraceSpan span;
    do {
      std::string key, text;
      int64_t number = 0;
      if (!cur.String(&key) || !cur.Consume(':') ||
          !cur.Value(&text, &number)) {
        return false;
      }
      if (key == "id") span.id = static_cast<uint32_t>(number);
      if (key == "parent") {
        span.parent = number < 0 ? mate::QueryTrace::kNoParent
                                 : static_cast<uint32_t>(number);
      }
      if (key == "name") span.name = text;
      if (key == "start_us") span.start_us = static_cast<uint64_t>(number);
      if (key == "dur_us") span.duration_us = static_cast<uint64_t>(number);
    } while (cur.Consume(','));
    if (!cur.Consume('}')) return false;
    // SelfTimesUs indexes parents by position: ids are begin order.
    if (span.id != spans.size()) return false;
    spans.push_back(std::move(span));
  } while (cur.Consume(','));
  if (!cur.Consume(']')) return false;
  Add(spans);
  return true;
}

double SpanTotals::SelfMs(
    std::initializer_list<std::string_view> names) const {
  uint64_t us = 0;
  for (std::string_view name : names) {
    auto it = self_us_.find(name);
    if (it != self_us_.end()) us += it->second;
  }
  return static_cast<double>(us) / 1e3;
}

}  // namespace perfbench
