#include "perfbench/harness.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "src/core/augmentation.h"
#include "src/data/generators/hurricane.h"
#include "src/data/generators/nyx.h"
#include "src/data/generators/qmcpack.h"
#include "src/data/generators/rtm.h"

namespace fxrz_perfbench {

namespace {

using fxrz::Tensor;

// Every metric the benchmark can report, with its unit. The JSON record of
// a run carries exactly one of these lists, in this order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* list = new std::vector<std::pair<std::string, std::string>>{
      {"setup_s", "s"},          {"compress_mb_s", "MB/s"},
      {"decompress_mb_s", "MB/s"}, {"request_p50_ms", "ms"},
      {"request_tail_ms", "ms"}, {"requests_per_s", "1/s"},
      {"psnr_db", "dB"},         {"compression_ratio", "x"},
      {"peak_rss_mb", "MB"}};
  return *list;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto* list = [] {
    auto* l = new std::vector<std::pair<std::string, std::string>>{
        {"trace.request_p50_ms", "ms"},
        {"train.total_s", "s"},
        {"train.stationary_s", "s"},
        {"train.augment_s", "s"},
        {"train.fit_s", "s"},
        {"train.codec_runs", "count"},
        {"analysis.features_ms", "ms"},
        {"analysis.ca_scan_ms", "ms"},
        {"model.query_us", "us"},
        {"model.est_err_pct", "%"},
        {"guard.tier.model", "count"},
        {"guard.tier.refined", "count"},
        {"guard.tier.fraz", "count"},
        {"guard.tier.constant", "count"},
        {"guard.codec_runs_per_request", "count"},
        {"guard.codec_time_share", "ratio"},
        {"guard.self_ms", "ms"},
        {"guard.served_err_pct", "%"},
        {"fraz.search_ms", "ms"},
        {"fraz.codec_runs", "count"}};
    for (const std::string& c : AllCodecs()) {
      l->push_back({"codec." + c + ".compress_mb_s", "MB/s"});
      l->push_back({"codec." + c + ".decompress_mb_s", "MB/s"});
      l->push_back({"codec." + c + ".ratio", "x"});
    }
    for (const char* m :
         {"huffman.encode_mb_s", "huffman.decode_mb_s", "zlite.pack_mb_s",
          "zlite.unpack_mb_s", "zlite.size_ratio", "arith.encode_mb_s",
          "arith.decode_mb_s"}) {
      const std::string name = std::string("encoding.") + m;
      l->push_back({name, name == "encoding.zlite.size_ratio" ? "x" : "MB/s"});
    }
    for (const char* m : {"queue_ms_p50", "queue_ms_p99", "service_ms_p50",
                          "service_ms_p99"}) {
      l->push_back({std::string("serve.") + m, "ms"});
    }
    return l;
  }();
  return *list;
}

void SetIn(const std::vector<std::pair<std::string, std::string>>& known,
           std::vector<std::pair<std::string, double>>* values,
           const std::string& name, double value) {
  const bool listed =
      std::any_of(known.begin(), known.end(),
                  [&](const auto& m) { return m.first == name; });
  if (!listed) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  for (auto& [n, v] : *values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values->push_back({name, value});
}

// Shortest decimal that round-trips, so values keep all their digits.
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::chrono::steady_clock::time_point g_start;

std::mutex g_totals_mu;

CodecTotals& TotalsFor(const std::string& name) {
  // Leaked: decorators may outlive static destruction order.
  static auto* totals = new std::map<std::string, CodecTotals>();
  std::lock_guard<std::mutex> lock(g_totals_mu);
  return (*totals)[name];
}

std::atomic<uint64_t> g_tally_epoch{1};

struct ThreadTallyState {
  uint64_t epoch = 0;
  ThreadTally tally;
};
thread_local ThreadTallyState t_tally;

ThreadTally& CurrentTally() {
  const uint64_t epoch = g_tally_epoch.load(std::memory_order_relaxed);
  if (t_tally.epoch != epoch) {
    t_tally.epoch = epoch;
    t_tally.tally = ThreadTally{};
  }
  return t_tally.tally;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

uint32_t FloatToOrdered(float f) {
  const uint32_t u = std::bit_cast<uint32_t>(f);
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MarkProcessStart() { g_start = std::chrono::steady_clock::now(); }

double SinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               index + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t = 0; t < std::min(workers, n); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MeanOfMedians(const std::vector<std::vector<double>>& strata) {
  std::vector<double> medians;
  for (const std::vector<double>& s : strata) {
    if (!s.empty()) medians.push_back(Quantile(s, 0.5));
  }
  return Mean(medians);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void Report::Set(const std::string& name, double value) {
  SetIn(EndToEndMetrics(), &end_to_end_, name, value);
}

void Report::SetLayer(const std::string& name, double value) {
  SetIn(LayerMetrics(), &layers_, name, value);
}

void Report::Fail(const std::string& why) {
  if (failures_.size() < 20) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  failures_.push_back(why);
}

void Report::Print(bool trace) const {
  auto lookup = [](const std::vector<std::pair<std::string, double>>& values,
                   const std::string& name, bool* found) {
    for (const auto& [n, v] : values) {
      if (n == name) {
        *found = true;
        return v;
      }
    }
    *found = false;
    return 0.0;
  };
  std::string json;
  for (const bool layer : {false, true}) {
    const auto& known = layer ? LayerMetrics() : EndToEndMetrics();
    const auto& values = layer ? layers_ : end_to_end_;
    if (layer && !trace) continue;
    for (const auto& [name, unit] : known) {
      bool found = false;
      const double v = lookup(values, name, &found);
      if (!found && !layer) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                     name.c_str());
        std::abort();
      }
      std::printf("metric %-34s %16s %s\n", name.c_str(), Number(v).c_str(),
                  unit.c_str());
      if (layer != trace) continue;
      if (!json.empty()) json += ", ";
      json += "\"" + name + "\": {\"value\": " + Number(v) + ", \"unit\": \"" +
              unit + "\"}";
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
}

std::vector<CodecSnapshot> SnapshotCodecs(const std::vector<std::string>& names) {
  std::vector<CodecSnapshot> out;
  for (const std::string& name : names) {
    const CodecTotals& t = TotalsFor(name);
    CodecSnapshot s;
    s.compress_ns = t.compress_ns.load();
    s.compress_bytes_in = t.compress_bytes_in.load();
    s.compress_bytes_out = t.compress_bytes_out.load();
    s.decompress_ns = t.decompress_ns.load();
    s.decompress_bytes_out = t.decompress_bytes_out.load();
    out.push_back(s);
  }
  return out;
}

void ReportCodecLayers(const std::vector<std::string>& names,
                       const std::vector<CodecSnapshot>& before,
                       Report* report) {
  const std::vector<CodecSnapshot> after = SnapshotCodecs(names);
  for (size_t c = 0; c < names.size(); ++c) {
    const CodecSnapshot& a = after[c];
    const CodecSnapshot& b = before[c];
    const double in = static_cast<double>(a.compress_bytes_in - b.compress_bytes_in);
    const std::string prefix = "codec." + names[c] + ".";
    report->SetLayer(prefix + "compress_mb_s",
                     in / 1e6 / ((a.compress_ns - b.compress_ns) * 1e-9));
    report->SetLayer(prefix + "decompress_mb_s",
                     (a.decompress_bytes_out - b.decompress_bytes_out) / 1e6 /
                         ((a.decompress_ns - b.decompress_ns) * 1e-9));
    report->SetLayer(prefix + "ratio",
                     in / (a.compress_bytes_out - b.compress_bytes_out));
  }
}

ThreadTally TakeThreadTally() {
  ThreadTally& tally = CurrentTally();
  const ThreadTally taken = tally;
  tally = ThreadTally{};
  return taken;
}

void ResetThreadTallies() { g_tally_epoch.fetch_add(1); }

CountingCompressor::CountingCompressor(std::unique_ptr<fxrz::Compressor> inner)
    : inner_(std::move(inner)), totals_(&TotalsFor(inner_->name())) {}

std::vector<uint8_t> CountingCompressor::Compress(const Tensor& data,
                                                  double config) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<uint8_t> out = inner_->Compress(data, config);
  const uint64_t ns = ElapsedNs(start);
  calls_.fetch_add(1);
  totals_->compress_ns.fetch_add(ns);
  totals_->compress_bytes_in.fetch_add(data.size_bytes());
  totals_->compress_bytes_out.fetch_add(out.size());
  ThreadTally& tally = CurrentTally();
  ++tally.calls;
  tally.seconds += static_cast<double>(ns) * 1e-9;
  return out;
}

fxrz::Status CountingCompressor::Decompress(const uint8_t* data, size_t size,
                                            Tensor* out) const {
  const auto start = std::chrono::steady_clock::now();
  fxrz::Status status = inner_->Decompress(data, size, out);
  totals_->decompress_ns.fetch_add(ElapsedNs(start));
  if (status.ok()) totals_->decompress_bytes_out.fetch_add(out->size_bytes());
  return status;
}

std::unique_ptr<fxrz::Compressor> MakeCodec(const std::string& name,
                                            bool traced) {
  std::unique_ptr<fxrz::Compressor> codec = fxrz::MakeCompressor(name);
  if (!traced) return codec;
  return std::make_unique<CountingCompressor>(std::move(codec));
}

const std::vector<std::string>& AllCodecs() {
  static const auto* codecs =
      new std::vector<std::string>{"sz", "sz3", "zfp", "fpzip", "mgard"};
  return *codecs;
}

ArchiveCheck DecodeAndCheck(const std::string& codec, double config,
                            const Tensor& original,
                            const std::vector<uint8_t>& archive, bool traced) {
  ArchiveCheck check;
  const std::unique_ptr<fxrz::Compressor> fresh = MakeCodec(codec, traced);
  const double start = Now();
  const fxrz::Status status =
      fresh->TryDecompress(archive.data(), archive.size(), &check.decoded);
  check.decode_seconds = Now() - start;
  if (!status.ok()) {
    check.why = codec + ": archive does not decode: " + status.ToString();
    return check;
  }
  if (check.decoded.dims() != original.dims()) {
    check.why = codec + ": decoded dims differ from the original";
    return check;
  }
  const float* x = original.data();
  const float* y = check.decoded.data();
  const size_t n = original.size();
  if (codec == "fpzip") {
    const int precision = static_cast<int>(std::lround(config));
    const uint64_t limit = precision >= 32 ? 1 : (1ull << (32 - precision));
    for (size_t i = 0; i < n; ++i) {
      const uint32_t a = FloatToOrdered(x[i]);
      const uint32_t b = FloatToOrdered(y[i]);
      const uint64_t dist = a > b ? a - b : b - a;
      if (dist >= limit) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "fpzip: value %zu is %llu ordered steps off at "
                      "precision %d",
                      i, static_cast<unsigned long long>(dist), precision);
        check.why = buf;
        return check;
      }
    }
  } else {
    double magnitude = 0.0;
    for (size_t i = 0; i < n; ++i) {
      magnitude = std::max(magnitude, std::fabs(static_cast<double>(x[i])));
    }
    const double bound = config + 1e-5 * magnitude + 1e-12;
    for (size_t i = 0; i < n; ++i) {
      const double err = std::fabs(static_cast<double>(x[i]) - y[i]);
      if (!(err <= bound)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: value %zu off by %.9g, bound %.9g", codec.c_str(),
                      i, err, bound);
        check.why = buf;
        return check;
      }
    }
  }
  check.psnr_db = Psnr(original, check.decoded);
  check.ok = true;
  return check;
}

double Psnr(const Tensor& original, const Tensor& decoded) {
  const float* x = original.data();
  const float* y = decoded.data();
  double lo = x[0], hi = x[0], sse = 0.0;
  for (size_t i = 0; i < original.size(); ++i) {
    lo = std::min(lo, static_cast<double>(x[i]));
    hi = std::max(hi, static_cast<double>(x[i]));
    const double d = static_cast<double>(x[i]) - y[i];
    sse += d * d;
  }
  if (sse == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sse / static_cast<double>(original.size());
  return 20.0 * std::log10(hi - lo) - 10.0 * std::log10(mse);
}

double RatioErrorPct(double target, double measured) {
  return 100.0 * std::fabs(target - measured) / target;
}

Tensor HeldOut(const fxrz::TrainTestBundle& bundle, uint64_t seed) {
  const std::vector<size_t>& d = bundle.test[0].data.dims();
  if (bundle.application == "nyx") {
    fxrz::NyxConfig c = fxrz::NyxConfig2();
    c.nz = d[0];
    c.ny = d[1];
    c.nx = d[2];
    c.seed = seed;
    return fxrz::GenerateNyxField(c, bundle.field, 3);
  }
  if (bundle.application == "hurricane") {
    fxrz::HurricaneConfig c = fxrz::HurricaneDefaultConfig();
    c.nz = d[0];
    c.ny = d[1];
    c.nx = d[2];
    c.seed = seed;
    return fxrz::GenerateHurricaneField(c, bundle.field, 48);
  }
  if (bundle.application == "qmcpack") {
    fxrz::QmcpackConfig c = fxrz::QmcpackConfig3();
    c.num_orbitals = d[0];
    c.nz = d[1];
    c.ny = d[2];
    c.nx = d[3];
    c.seed = seed;
    return fxrz::GenerateQmcpackOrbitals(c, bundle.field == "spin1" ? 1 : 0);
  }
  fxrz::RtmConfig c = fxrz::RtmBigScaleConfig();
  c.nz = d[0];
  c.ny = d[1];
  c.nx = d[2];
  c.seed = seed;
  return fxrz::SimulateRtmSnapshot(c, 300);
}

double ProbedTarget(const std::string& codec, const Tensor& data,
                    size_t position) {
  constexpr int kPositions = 5;
  const std::vector<double> targets = fxrz::ProbeValidTargetRatios(
      *fxrz::MakeCompressor(codec), data, kPositions, /*margin=*/0.1,
      /*probes=*/2);
  return targets[position % kPositions];
}

void TrainChecked(fxrz::Fxrz* fxrz, const fxrz::TrainTestBundle& bundle,
                  const std::string& label, fxrz::TrainingBreakdown* total,
                  Report* report) {
  std::vector<const Tensor*> set;
  for (const fxrz::NamedDataset& d : bundle.train) set.push_back(&d.data);
  const auto* counted =
      dynamic_cast<const CountingCompressor*>(&fxrz->compressor());
  const uint64_t calls_before = counted ? counted->compress_calls() : 0;
  const fxrz::TrainingBreakdown b = fxrz->Train(set);
  if (counted && counted->compress_calls() - calls_before != b.compressor_runs) {
    report->Fail(label + ": decorator-counted training runs differ from "
                 "TrainingBreakdown::compressor_runs");
  }
  total->stationary_seconds += b.stationary_seconds;
  total->augment_seconds += b.augment_seconds;
  total->fit_seconds += b.fit_seconds;
  total->compressor_runs += b.compressor_runs;
}

void ReportTraining(const fxrz::TrainingBreakdown& total, double seconds,
                    Report* report) {
  report->SetLayer("train.total_s", seconds);
  report->SetLayer("train.stationary_s", total.stationary_seconds);
  report->SetLayer("train.augment_s", total.augment_seconds);
  report->SetLayer("train.fit_s", total.fit_seconds);
  report->SetLayer("train.codec_runs",
                   static_cast<double>(total.compressor_runs));
}

}  // namespace fxrz_perfbench
