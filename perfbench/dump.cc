// `dump`: the paper's in-situ use of FXRZ.
//
// Models for all five codecs are trained on the catalog's level-1 and
// level-2 training sets at scale 1.0 (Hurricane TC and Nyx baryon_density,
// the two scenarios of bench/parallel_dump). One caller then streams seeded
// held-out realizations of both fields through the one-shot
// Fxrz::CompressToRatio -- feature analysis, one model query, one
// compression -- each (snapshot, codec) pair once per round, at a target
// probed from that snapshot's own reachable range. Every archive is then
// decoded and checked. The guard ladder and the server are bypassed.
//
// Request latencies fall into one cluster per (scenario, codec) model, so
// request_p50_ms is the mean of the ten models' median latencies: a pooled
// median would sit between two clusters and jump with the seed. Hurricane
// snapshots (16x64x64) are cheaper than Nyx ones (64^3) and make up two
// thirds of a round, so the pooled p90 falls inside the Nyx clusters rather
// than on a gap.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/core/pipeline.h"
#include "src/data/generators/catalog.h"

namespace fxrz_perfbench {

namespace {

using fxrz::Fxrz;
using fxrz::Tensor;

// Held-out snapshots per scenario (Nyx, Hurricane). Both exceed the
// 8-entry analysis cache of a model, so a snapshot is always evicted before
// its model sees it again and every request pays for its own analysis.
constexpr int kSnapshots[] = {20, 40};

struct Scenario {
  fxrz::TrainTestBundle bundle;
  std::vector<Tensor> heldout;
  std::vector<std::unique_ptr<Fxrz>> models;  // one per codec
};

struct Request {
  size_t scenario = 0;
  size_t snapshot = 0;
  size_t codec = 0;
  double target = 0.0;
};

}  // namespace

void RunDump(const Args& args, Report* report) {
  const std::vector<std::string>& codecs = AllCodecs();

  // ---- Set-up: training sets, held-out realizations, probed targets.
  fxrz::CatalogOptions catalog;
  catalog.scale = 1.0;
  std::vector<Scenario> scenarios(2);
  scenarios[0].bundle = fxrz::MakeNyxBundle("baryon_density", catalog);
  scenarios[1].bundle = fxrz::MakeHurricaneBundle("TC", catalog);
  for (size_t s = 0; s < scenarios.size(); ++s) {
    scenarios[s].heldout.resize(kSnapshots[s]);
  }
  ParallelFor(kSnapshots[0] + kSnapshots[1], [&](size_t j) {
    const size_t s = j < kSnapshots[0] ? 0 : 1;
    const size_t i = s == 0 ? j : j - kSnapshots[0];
    scenarios[s].heldout[i] = HeldOut(scenarios[s].bundle, Mix(args.seed, s, i));
  });

  // One round: snapshot-major, so each model cycles through its scenario's
  // snapshots in order.
  std::vector<Request> round;
  for (int i = 0; i < kSnapshots[1]; ++i) {
    for (size_t s = 0; s < scenarios.size(); ++s) {
      if (i >= kSnapshots[s]) continue;
      for (size_t c = 0; c < codecs.size(); ++c) {
        round.push_back({s, static_cast<size_t>(i), c, 0.0});
      }
    }
  }
  // The target position rotates with the snapshot and codec, so every run
  // has the same mix of positions and the seed only changes the
  // realizations.
  ParallelFor(round.size(), [&](size_t j) {
    Request& r = round[j];
    r.target = ProbedTarget(codecs[r.codec],
                            scenarios[r.scenario].heldout[r.snapshot],
                            r.snapshot + r.codec);
  });
  report->Set("setup_s", SinceStart());

  // ---- Training: every model, one Train call each.
  fxrz::FxrzTrainingOptions training;
  training.training_threads = 0;  // one worker per hardware thread
  fxrz::TrainingBreakdown total;
  const double train_start = Now();
  for (Scenario& sc : scenarios) {
    for (const std::string& codec : codecs) {
      auto fxrz = std::make_unique<Fxrz>(MakeCodec(codec, args.trace), training);
      TrainChecked(fxrz.get(), sc.bundle, "dump/" + codec, &total, report);
      sc.models.push_back(std::move(fxrz));
    }
  }
  const double train_seconds = Now() - train_start;

  // ---- Measured window: whole rounds until the time is spent.
  const std::vector<CodecSnapshot> codec_before = SnapshotCodecs(codecs);
  std::vector<double> latencies, errors, psnrs;
  std::vector<std::vector<double>> latencies_by_model(scenarios.size() *
                                                      codecs.size());
  double bytes_in = 0.0, bytes_out = 0.0, decode_seconds = 0.0;
  const double window_start = Now();
  do {
    for (const Request& r : round) {
      const Tensor& snap = scenarios[r.scenario].heldout[r.snapshot];
      const Fxrz& fxrz = *scenarios[r.scenario].models[r.codec];
      const std::string& codec = codecs[r.codec];
      ++report->attempted;

      TakeThreadTally();
      const uint64_t extractions = fxrz::FeatureExtractionCount();
      const double start = Now();
      const Fxrz::FixedRatioResult result = fxrz.CompressToRatio(snap, r.target);
      latencies.push_back(Now() - start);
      latencies_by_model[r.scenario * codecs.size() + r.codec].push_back(
          latencies.back());
      if (result.compressed.empty()) {
        ++report->failed;
        std::fprintf(stderr, "perfbench: dump: %s produced no archive\n",
                     codec.c_str());
        continue;
      }
      if (args.trace) {
        if (TakeThreadTally().calls != 1 || result.compressions != 1) {
          report->Fail("dump: one-shot CompressToRatio of " + codec +
                       " did not run the codec exactly once");
        }
        if (fxrz::FeatureExtractionCount() - extractions != 1) {
          report->Fail("dump: a request did not extract features exactly once");
        }
      }

      const double in = static_cast<double>(snap.size_bytes());
      const double out = static_cast<double>(result.compressed.size());
      bytes_in += in;
      bytes_out += out;
      errors.push_back(RatioErrorPct(r.target, in / out));
      const ArchiveCheck check = DecodeAndCheck(codec, result.config, snap,
                                                result.compressed, args.trace);
      if (!check.ok) {
        report->Fail("dump: " + check.why);
        continue;
      }
      decode_seconds += check.decode_seconds;
      if (std::isfinite(check.psnr_db)) psnrs.push_back(check.psnr_db);
    }
  } while (Now() - window_start < args.seconds);

  double request_seconds = 0.0;
  for (double l : latencies) request_seconds += l;
  report->Set("compress_mb_s", bytes_in / 1e6 / request_seconds);
  report->Set("decompress_mb_s", bytes_in / 1e6 / decode_seconds);
  report->Set("request_p50_ms", 1e3 * MeanOfMedians(latencies_by_model));
  // Two or three rounds of 300 requests leave fewer than ten beyond the
  // p99, so the tail is the p90.
  report->Set("request_tail_ms", 1e3 * Quantile(latencies, 0.9));
  report->Set("requests_per_s",
              static_cast<double>(latencies.size()) / request_seconds);
  report->Set("psnr_db", Mean(psnrs));
  report->Set("compression_ratio", bytes_in / bytes_out);

  ReportTraining(total, train_seconds, report);
  report->SetLayer("model.est_err_pct", Mean(errors));
  if (!args.trace) return;

  report->SetLayer("trace.request_p50_ms",
                   1e3 * MeanOfMedians(latencies_by_model));
  ReportCodecLayers(codecs, codec_before, report);

  // Analysis and model layers, timed from outside on every (snapshot,
  // codec) pair of one round. EstimateConfig must not run the codec.
  std::vector<double> features_ms, scan_ms, query_us;
  for (const Request& r : round) {
    const Tensor& snap = scenarios[r.scenario].heldout[r.snapshot];
    const Fxrz& fxrz = *scenarios[r.scenario].models[r.codec];
    TakeThreadTally();
    fxrz.EstimateConfig(snap, r.target);
    if (TakeThreadTally().calls != 0) {
      report->Fail("dump: EstimateConfig ran the codec");
    }
    double start = Now();
    fxrz.model().EstimateWithConfidence(snap, r.target);  // analysed: cached
    query_us.push_back(1e6 * (Now() - start));

    const fxrz::FxrzTrainingOptions& o = fxrz.model().options();
    start = Now();
    fxrz::ExtractFeatures(snap, o.features);
    features_ms.push_back(1e3 * (Now() - start));
    start = Now();
    fxrz::ScanConstantBlocks(snap, o.ca);
    scan_ms.push_back(1e3 * (Now() - start));
  }
  report->SetLayer("analysis.features_ms", Mean(features_ms));
  report->SetLayer("analysis.ca_scan_ms", Mean(scan_ms));
  report->SetLayer("model.query_us", Mean(query_us));
}

}  // namespace fxrz_perfbench
