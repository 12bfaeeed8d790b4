// Archive pinning: every codec must keep writing the exact archive bytes,
// and decoding them to the exact floats, that the constants below record.
// The kernels in src/util/simd.cc fix their evaluation order (lane-
// partitioned reductions, float-before-widen adds, no FMA contraction), so
// any change to that order, or to a codec stage, shows up here as a CRC32C
// mismatch. A deliberate format change re-records the table and says why in
// CHANGES.md.
//
// The suite keeps its SimdEquivalenceTest name so its test IDs stay stable
// across the move from the former cross-dispatch-level comparison.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/compressors/relative.h"
#include "src/data/tensor.h"
#include "src/util/checksum.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

// Odd extents everywhere: block/tile boundaries, partial rows and the
// 4-lane reduction tails all land off the aligned fast path.
Tensor MakeDataset(const std::string& kind) {
  if (kind == "line1d") {
    Rng rng(11);
    Tensor t({193});
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(std::sin(0.07 * i) +
                                0.02 * rng.NextGaussian());
    }
    return t;
  }
  if (kind == "plate2d") {
    Rng rng(12);
    Tensor t({33, 17});
    for (size_t y = 0; y < 33; ++y) {
      for (size_t x = 0; x < 17; ++x) {
        t.at({y, x}) = static_cast<float>(std::cos(0.2 * y) * (0.5 + 0.03 * x) +
                                          0.05 * rng.NextGaussian());
      }
    }
    return t;
  }
  if (kind == "brick3d") {
    Rng rng(13);
    Tensor t({17, 13, 9});
    for (size_t z = 0; z < 17; ++z) {
      for (size_t y = 0; y < 13; ++y) {
        for (size_t x = 0; x < 9; ++x) {
          t.at({z, y, x}) = static_cast<float>(
              std::sin(0.3 * z) + std::cos(0.25 * y) + 0.1 * x +
              0.02 * rng.NextGaussian());
        }
      }
    }
    return t;
  }
  // "stack4d"
  Rng rng(14);
  Tensor t({3, 9, 10, 11});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.01 * i) + 0.05 * rng.NextGaussian());
  }
  return t;
}

// CRC32C of each dataset's float bytes. A mismatch here means the inputs
// moved (libm, Rng), not the codecs.
struct InputPin {
  const char* shape;
  uint32_t crc;
};
constexpr InputPin kInputPins[] = {
    {"line1d", 0x31CBB9A7u},
    {"plate2d", 0xC2371F1Eu},
    {"brick3d", 0x49E5FDE6u},
    {"stack4d", 0xACDB5518u},
};

// Archive size and CRC32C, and CRC32C of the decoded float bytes.
struct ArchivePin {
  const char* codec;
  const char* shape;
  size_t archive_size;
  uint32_t archive_crc;
  uint32_t decoded_crc;
};
constexpr ArchivePin kArchivePins[] = {
    {"sz", "line1d", 736, 0xD8C396ACu, 0xC1AC4CBAu},
    {"sz", "plate2d", 1391, 0x1D1C8B2Bu, 0x94CD22D3u},
    {"sz", "brick3d", 2010, 0x2CBDFD6Fu, 0x4D5E8A74u},
    {"sz", "stack4d", 4790, 0x819CCF2Du, 0x5E6969CBu},
    {"sz3", "line1d", 519, 0x02A03DBBu, 0xF0EEFB61u},
    {"sz3", "plate2d", 1169, 0x785AEDFBu, 0xD0074A4Du},
    {"sz3", "brick3d", 1877, 0x0821DD92u, 0x46A520F7u},
    {"sz3", "stack4d", 4905, 0x7DC610D3u, 0xAB4CF578u},
    {"zfp", "line1d", 491, 0xF75D6C5Au, 0x0A55B200u},
    {"zfp", "plate2d", 1093, 0x7E4110F4u, 0xD5CEB41Eu},
    {"zfp", "brick3d", 3170, 0x30AC0C2Au, 0xDAE94270u},
    {"zfp", "stack4d", 6529, 0xAA5450E5u, 0xA6746539u},
    {"fpzip", "line1d", 276, 0x15EA143Fu, 0x27D4DDD9u},
    {"fpzip", "plate2d", 807, 0x1FA2DB61u, 0x4715CC76u},
    {"fpzip", "brick3d", 2596, 0x09930731u, 0xDFB634F1u},
    {"fpzip", "stack4d", 4169, 0x8728CA4Au, 0x8EE60321u},
    {"mgard", "line1d", 887, 0x62886AA7u, 0xDE544189u},
    {"mgard", "plate2d", 2555, 0xFE81AA33u, 0xFA43D4D8u},
    {"mgard", "brick3d", 4483, 0x41C59C65u, 0xB15DFC94u},
    {"mgard", "stack4d", 13797, 0xADA33A5Cu, 0xD8577ED5u},
    {"relative", "line1d", 736, 0xD8C396ACu, 0xC1AC4CBAu},
    {"relative", "plate2d", 1391, 0x5236AF04u, 0x94CD22D3u},
    {"relative", "brick3d", 2010, 0x78A1DB1Au, 0x4D5E8A74u},
    {"relative", "stack4d", 4790, 0x819CCF2Du, 0x5E6969CBu},
};

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08Xu", v);
  return buf;
}

class SimdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SimdEquivalenceTest, ArchivesAndDecodesAreBitIdentical) {
  const std::string& name = std::get<0>(GetParam());
  const std::string& shape = std::get<1>(GetParam());
  const InputPin* input_pin = nullptr;
  for (const InputPin& p : kInputPins) {
    if (shape == p.shape) input_pin = &p;
  }
  const ArchivePin* pin = nullptr;
  for (const ArchivePin& p : kArchivePins) {
    if (name == p.codec && shape == p.shape) pin = &p;
  }
  ASSERT_NE(input_pin, nullptr) << shape;
  ASSERT_NE(pin, nullptr) << name << "_" << shape;

  const Tensor data = MakeDataset(shape);
  ASSERT_EQ(Hex(Crc32c::Compute(data.data(), data.size_bytes())),
            Hex(input_pin->crc))
      << shape << ": input dataset changed; the archive pins below no "
      << "longer describe the codecs";

  const std::unique_ptr<Compressor> comp =
      name == "relative"
          ? std::make_unique<RelativeErrorCompressor>(MakeCompressor("sz"))
          : MakeCompressor(name);
  const ConfigSpace space = comp->config_space(data);
  const double config = space.integer
                            ? std::round(0.5 * (space.min + space.max))
                            : std::sqrt(space.min * space.max);

  const std::vector<uint8_t> archive = comp->Compress(data, config);
  EXPECT_EQ(archive.size(), pin->archive_size) << name << "_" << shape;
  EXPECT_EQ(Hex(Crc32c::Compute(archive.data(), archive.size())),
            Hex(pin->archive_crc))
      << name << "_" << shape << ": archive bytes changed";

  Tensor out;
  ASSERT_TRUE(comp->Decompress(archive.data(), archive.size(), &out).ok());
  ASSERT_EQ(out.size(), data.size());
  EXPECT_EQ(Hex(Crc32c::Compute(out.data(), out.size_bytes())),
            Hex(pin->decoded_crc))
      << name << "_" << shape << ": decoded floats changed";
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, SimdEquivalenceTest,
    ::testing::Combine(::testing::Values("sz", "sz3", "zfp", "fpzip", "mgard",
                                         "relative"),
                       ::testing::Values("line1d", "plate2d", "brick3d",
                                         "stack4d")),
    [](const ::testing::TestParamInfo<SimdEquivalenceTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace fxrz
