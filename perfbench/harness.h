// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record, order statistics, the counting/timing codec decorator used
// by traced runs, and the output checks every workload applies to the
// archives it produces.
//
// The benchmark drives the library only through its public calls; every
// per-layer number is timed from outside those calls.

#ifndef FXRZ_PERFBENCH_HARNESS_H_
#define FXRZ_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"
#include "src/data/tensor.h"

namespace fxrz_perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Seconds on the monotonic clock.
double Now();

// Seconds since main() started: the cold set-up clock.
double SinceStart();
void MarkProcessStart();

// SplitMix64 over (seed, stream, index): independent, reproducible streams
// for every seeded input of a workload.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);

// Runs fn(0) .. fn(n-1) on one thread per hardware thread. Used for the
// set-up (input generation and target probing), never in a measured window.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

// Linearly interpolated order statistic, q in [0, 1]. 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Mean over strata of each stratum's median. Where requests fall into
// latency clusters far apart (one per backend and ladder tier), the pooled
// median lands in the gap between two clusters and jumps with the share of
// requests on either side; the per-stratum medians do not.
double MeanOfMedians(const std::vector<std::vector<double>>& strata);

// VmHWM of this process in MB (MiB).
double PeakRssMb();

// The result of one run. End-to-end metrics are printed in the JSON
// record of an untraced run, per-layer metrics in that of a traced run;
// both are printed as text lines either way. Names and units come from the
// fixed lists in harness.cc, so every run reports the same key set: a layer
// a workload does not exercise reads 0.
class Report {
 public:
  void Set(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);
  // Records a failed output check; the run is reported as not correct.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints every metric on its own line, then the one-line JSON record
  // (the last line of standard output).
  void Print(bool trace) const;

 private:
  std::vector<std::pair<std::string, double>> end_to_end_;
  std::vector<std::pair<std::string, double>> layers_;
  std::vector<std::string> failures_;
};

// Per-codec totals accumulated by every CountingCompressor of that name.
struct CodecTotals {
  std::atomic<uint64_t> compress_ns{0};
  std::atomic<uint64_t> compress_bytes_in{0};
  std::atomic<uint64_t> compress_bytes_out{0};
  std::atomic<uint64_t> decompress_ns{0};
  std::atomic<uint64_t> decompress_bytes_out{0};
};

// A plain copy of CodecTotals, for window deltas.
struct CodecSnapshot {
  uint64_t compress_ns = 0, compress_bytes_in = 0, compress_bytes_out = 0,
           decompress_ns = 0, decompress_bytes_out = 0;
};
std::vector<CodecSnapshot> SnapshotCodecs(const std::vector<std::string>& names);

// Sets codec.<c>.{compress_mb_s,decompress_mb_s,ratio} from the counted
// work of each codec since `before` (taken with SnapshotCodecs).
void ReportCodecLayers(const std::vector<std::string>& names,
                       const std::vector<CodecSnapshot>& before,
                       Report* report);

// Codec runs and codec seconds made by the calling thread since its last
// TakeThreadTally (or since the last ResetThreadTallies, whichever is
// later). The serving layer runs one request at a time on a worker thread
// and invokes the request's callback on that same thread, so the callback
// can attribute codec work to the request it resolves.
struct ThreadTally {
  uint64_t calls = 0;
  double seconds = 0.0;
};
ThreadTally TakeThreadTally();
void ResetThreadTallies();

// Decorator that counts and times every Compress/Decompress of the wrapped
// codec -- including the runs FRaZ and training make outside TryCompress --
// and reports the wrapped codec's name, so the library treats it exactly
// like the codec itself.
class CountingCompressor : public fxrz::Compressor {
 public:
  explicit CountingCompressor(std::unique_ptr<fxrz::Compressor> inner);

  std::string name() const override { return inner_->name(); }
  fxrz::ConfigSpace config_space(const fxrz::Tensor& data) const override {
    return inner_->config_space(data);
  }
  std::vector<uint8_t> Compress(const fxrz::Tensor& data,
                                double config) const override;
  fxrz::Status Decompress(const uint8_t* data, size_t size,
                          fxrz::Tensor* out) const override;
  fxrz::Status VerifyIntegrity(const uint8_t* data,
                               size_t size) const override {
    return inner_->VerifyIntegrity(data, size);
  }

  // Compress calls through this instance, from any thread.
  uint64_t compress_calls() const { return calls_.load(); }

 private:
  std::unique_ptr<fxrz::Compressor> inner_;
  CodecTotals* totals_;
  mutable std::atomic<uint64_t> calls_{0};
};

// A fresh codec; wrapped in a CountingCompressor when `traced`.
std::unique_ptr<fxrz::Compressor> MakeCodec(const std::string& name,
                                            bool traced);

// The five codecs the benchmark measures: sz, sz3, zfp, fpzip, mgard.
const std::vector<std::string>& AllCodecs();

// Outcome of decoding and checking one archive.
struct ArchiveCheck {
  bool ok = false;
  std::string why;       // set when !ok
  double psnr_db = 0.0;  // from the original and decoded values
  double decode_seconds = 0.0;
  fxrz::Tensor decoded;
};

// Decodes `archive` with a freshly made codec of `codec` (counted when
// `traced`), then checks the dims and the error bound `config` implies:
// |x - x'| <= eb plus float slack for the error-bounded codecs, and for
// fpzip at precision p an ordered-integer distance below 2^(32-p).
ArchiveCheck DecodeAndCheck(const std::string& codec, double config,
                            const fxrz::Tensor& original,
                            const std::vector<uint8_t>& archive, bool traced);

// PSNR in dB over the original's value range; +inf for a lossless match.
double Psnr(const fxrz::Tensor& original, const fxrz::Tensor& decoded);

// |target - measured| / target in percent (the paper's Formula 5).
double RatioErrorPct(double target, double measured);

// A held-out realization of `bundle`'s test tensor: the catalog's test
// configuration and grid, with generator seed `seed`.
fxrz::Tensor HeldOut(const fxrz::TrainTestBundle& bundle, uint64_t seed);

// The target at `position` (mod 5) of five log-spaced ratios over the
// reachable range of `codec` on `data`, trimmed by 10% at each end. The
// range comes from compressing at both ends of the codec's config space.
double ProbedTarget(const std::string& codec, const fxrz::Tensor& data,
                    size_t position);

// Trains `fxrz` on `bundle`'s training set and adds its breakdown to
// `total`. When the codec is counted, checks that the decorator saw exactly
// TrainingBreakdown::compressor_runs codec runs.
void TrainChecked(fxrz::Fxrz* fxrz, const fxrz::TrainTestBundle& bundle,
                  const std::string& label, fxrz::TrainingBreakdown* total,
                  Report* report);
void ReportTraining(const fxrz::TrainingBreakdown& total, double seconds,
                    Report* report);

// Workload entry points (dump.cc, serve.cc, bulk.cc).
void RunDump(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunBulk(const Args& args, Report* report);

}  // namespace fxrz_perfbench

#endif  // FXRZ_PERFBENCH_HARNESS_H_
