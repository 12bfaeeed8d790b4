// `bulk`: fixed-config codec throughput on a field far bigger than cache.
//
// One seeded 256^3 (64 MiB) Nyx baryon_density realization is compressed
// with Compressor::TryCompress and restored with TryDecompress by all five
// codecs at two fixed configs each: a low/mid-ratio one and a high-ratio
// one (absolute error bounds 0.01 and 1 on the unit-mean density; fpzip
// precisions 20 and 10). No analysis, model or guard ladder runs here. A traced run
// also times the entropy stages on a quantization-code stream built from
// the same field at the same two error bounds.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/data/generators/nyx.h"
#include "src/encoding/arith.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"

namespace fxrz_perfbench {

namespace {

using fxrz::Tensor;

constexpr size_t kGrid = 256;
constexpr double kErrorBounds[] = {1e-2, 1.0};
constexpr double kFpzipPrecisions[] = {20, 10};
// Values of the field that feed the entropy-stage stream: 32 planes.
constexpr size_t kStreamValues = kGrid * kGrid * 32;

struct Op {
  size_t codec = 0;
  double config = 0.0;
};

// SZ-style quantization codes: previous-value prediction on reconstructed
// values, bins of width 2*eb around the prediction, code 0 for values the
// 2^16-bin range cannot hold.
std::vector<uint32_t> QuantizationCodes(const Tensor& field, double eb) {
  constexpr int64_t kRadius = 32768;
  std::vector<uint32_t> codes(kStreamValues);
  double prev = 0.0;
  for (size_t i = 0; i < kStreamValues; ++i) {
    if (i % kGrid == 0) prev = 0.0;
    const double x = field[i];
    const double q = std::round((x - prev) / (2.0 * eb));
    if (std::fabs(q) < kRadius) {
      codes[i] = static_cast<uint32_t>(static_cast<int64_t>(q) + kRadius);
      prev += 2.0 * eb * q;
    } else {
      codes[i] = 0;
      prev = x;
    }
  }
  return codes;
}

// 16-bit symbols through the adaptive binary coder, one context per bit
// position (as fpzip-style codecs drive it).
std::vector<uint8_t> ArithEncode16(const std::vector<uint32_t>& symbols) {
  fxrz::ArithEncoder enc;
  fxrz::BitContext ctx[16];
  for (uint32_t s : symbols) {
    for (int b = 15; b >= 0; --b) enc.EncodeBit(&ctx[b], (s >> b) & 1u);
  }
  return std::move(enc).Finish();
}

std::vector<uint32_t> ArithDecode16(const std::vector<uint8_t>& bytes,
                                    size_t count) {
  fxrz::ArithDecoder dec(bytes.data(), bytes.size());
  fxrz::BitContext ctx[16];
  std::vector<uint32_t> out(count);
  for (uint32_t& s : out) {
    s = 0;
    for (int b = 15; b >= 0; --b) s |= dec.DecodeBit(&ctx[b]) << b;
  }
  return out;
}

// Times the Huffman, zlite and arithmetic stages on the quantization
// streams of both error bounds and checks that each round-trips.
void MeasureEncoding(const Tensor& field, Report* report) {
  double symbol_bytes = 0.0, huff_bytes = 0.0, zlite_bytes = 0.0;
  double huff_enc = 0.0, huff_dec = 0.0, zl_pack = 0.0, zl_unpack = 0.0;
  double ar_enc = 0.0, ar_dec = 0.0;
  for (double eb : kErrorBounds) {
    const std::vector<uint32_t> codes = QuantizationCodes(field, eb);
    symbol_bytes += 4.0 * codes.size();

    double start = Now();
    const std::vector<uint8_t> huff = fxrz::HuffmanEncode(codes);
    huff_enc += Now() - start;
    std::vector<uint32_t> decoded;
    start = Now();
    const fxrz::Status hs = fxrz::HuffmanDecode(huff.data(), huff.size(), &decoded);
    huff_dec += Now() - start;
    if (!hs.ok() || decoded != codes) report->Fail("bulk: Huffman round trip");
    huff_bytes += huff.size();

    start = Now();
    const std::vector<uint8_t> packed = fxrz::ZliteCompress(huff);
    zl_pack += Now() - start;
    std::vector<uint8_t> unpacked;
    start = Now();
    const fxrz::Status zs =
        fxrz::ZliteDecompress(packed.data(), packed.size(), &unpacked);
    zl_unpack += Now() - start;
    if (!zs.ok() || unpacked != huff) report->Fail("bulk: zlite round trip");
    zlite_bytes += packed.size();

    start = Now();
    const std::vector<uint8_t> arith = ArithEncode16(codes);
    ar_enc += Now() - start;
    start = Now();
    const std::vector<uint32_t> arith_decoded = ArithDecode16(arith, codes.size());
    ar_dec += Now() - start;
    if (arith_decoded != codes) report->Fail("bulk: arithmetic-coder round trip");
  }
  report->SetLayer("encoding.huffman.encode_mb_s", symbol_bytes / 1e6 / huff_enc);
  report->SetLayer("encoding.huffman.decode_mb_s", symbol_bytes / 1e6 / huff_dec);
  report->SetLayer("encoding.zlite.pack_mb_s", huff_bytes / 1e6 / zl_pack);
  report->SetLayer("encoding.zlite.unpack_mb_s", huff_bytes / 1e6 / zl_unpack);
  report->SetLayer("encoding.zlite.size_ratio", zlite_bytes / huff_bytes);
  report->SetLayer("encoding.arith.encode_mb_s", symbol_bytes / 1e6 / ar_enc);
  report->SetLayer("encoding.arith.decode_mb_s", symbol_bytes / 1e6 / ar_dec);
}

}  // namespace

void RunBulk(const Args& args, Report* report) {
  const std::vector<std::string>& codecs = AllCodecs();

  // ---- Set-up: the field and the fixed configs.
  fxrz::NyxConfig config = fxrz::NyxConfig2();
  config.nz = config.ny = config.nx = kGrid;
  config.seed = Mix(args.seed, 20, 0);
  const Tensor field = fxrz::GenerateNyxField(config, "baryon_density", 3);
  std::vector<Op> round;
  std::vector<std::unique_ptr<fxrz::Compressor>> instances;
  for (size_t c = 0; c < codecs.size(); ++c) {
    instances.push_back(MakeCodec(codecs[c], args.trace));
    for (int level = 0; level < 2; ++level) {
      round.push_back({c, codecs[c] == "fpzip"
                              ? kFpzipPrecisions[level]
                              : kErrorBounds[level]});
    }
  }
  report->Set("setup_s", SinceStart());

  // ---- Measured window: whole rounds until the time is spent.
  const std::vector<CodecSnapshot> codec_before = SnapshotCodecs(codecs);
  std::vector<double> latencies, psnrs;
  std::vector<std::vector<double>> latencies_by_op(round.size());
  double bytes_in = 0.0, bytes_out = 0.0, decode_seconds = 0.0;
  const double window_start = Now();
  do {
    for (size_t j = 0; j < round.size(); ++j) {
      const Op& op = round[j];
      const std::string& codec = codecs[op.codec];
      ++report->attempted;
      std::vector<uint8_t> archive;
      const double start = Now();
      const fxrz::Status status =
          instances[op.codec]->TryCompress(field, op.config, &archive);
      latencies.push_back(Now() - start);
      latencies_by_op[j].push_back(latencies.back());
      if (!status.ok()) {
        ++report->failed;
        std::fprintf(stderr, "perfbench: bulk: %s failed: %s\n", codec.c_str(),
                     status.ToString().c_str());
        continue;
      }
      const ArchiveCheck check =
          DecodeAndCheck(codec, op.config, field, archive, args.trace);
      if (!check.ok) {
        report->Fail("bulk: " + check.why);
        continue;
      }
      bytes_in += field.size_bytes();
      bytes_out += archive.size();
      decode_seconds += check.decode_seconds;
      if (std::isfinite(check.psnr_db)) psnrs.push_back(check.psnr_db);
    }
  } while (Now() - window_start < args.seconds);

  double compress_seconds = 0.0;
  for (double l : latencies) compress_seconds += l;
  report->Set("compress_mb_s", bytes_in / 1e6 / compress_seconds);
  report->Set("decompress_mb_s", bytes_in / 1e6 / decode_seconds);
  report->Set("request_p50_ms", 1e3 * MeanOfMedians(latencies_by_op));
  // Ten operations a round leave no percentile with ten samples beyond it:
  // the tail is the slowest operation.
  report->Set("request_tail_ms", 1e3 * Quantile(latencies, 1.0));
  report->Set("requests_per_s",
              static_cast<double>(latencies.size()) / compress_seconds);
  report->Set("psnr_db", Mean(psnrs));
  report->Set("compression_ratio", bytes_in / bytes_out);
  if (!args.trace) return;

  report->SetLayer("trace.request_p50_ms", 1e3 * MeanOfMedians(latencies_by_op));
  ReportCodecLayers(codecs, codec_before, report);
  MeasureEncoding(field, report);
}

}  // namespace fxrz_perfbench
