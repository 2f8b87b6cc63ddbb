#include <gtest/gtest.h>

#include "ipcomp.hpp"
#include "interp/sweep.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

struct CompressCase {
  Dims dims;
  double eb;
  InterpKind kind;
};

class CompressorRoundTrip : public ::testing::TestWithParam<CompressCase> {};

TEST_P(CompressorRoundTrip, FullRetrievalWithinErrorBound) {
  const auto& c = GetParam();
  auto field = smooth_field(c.dims, /*seed=*/7, /*noise=*/0.05);
  Options opt;
  opt.error_bound = c.eb;
  opt.relative = false;
  opt.interp = c.kind;
  Bytes archive = compress(field.const_view(), opt);

  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), c.eb * (1 + 1e-9));
  EXPECT_LE(st.guaranteed_error, c.eb * (1 + 1e-9));
  EXPECT_EQ(reader.data().size(), c.dims.count());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompressorRoundTrip,
    ::testing::Values(
        CompressCase{Dims{1000}, 1e-3, InterpKind::kCubic},
        CompressCase{Dims{1000}, 1e-3, InterpKind::kLinear},
        CompressCase{Dims{1}, 1e-3, InterpKind::kCubic},
        CompressCase{Dims{7}, 1e-6, InterpKind::kCubic},
        CompressCase{Dims{64, 64}, 1e-4, InterpKind::kCubic},
        CompressCase{Dims{63, 65}, 1e-4, InterpKind::kLinear},
        CompressCase{Dims{17, 5}, 1e-8, InterpKind::kCubic},
        CompressCase{Dims{24, 24, 24}, 1e-4, InterpKind::kCubic},
        CompressCase{Dims{10, 30, 20}, 1e-2, InterpKind::kLinear},
        CompressCase{Dims{31, 17, 9}, 1e-6, InterpKind::kCubic},
        CompressCase{Dims{6, 6, 6, 6}, 1e-4, InterpKind::kCubic}),
    [](const auto& info) {
      std::string s = info.param.dims.to_string() + "_" +
                      (info.param.kind == InterpKind::kCubic ? "cubic" : "linear") +
                      "_eb" + std::to_string(static_cast<int>(-std::log10(info.param.eb)));
      for (auto& ch : s) {
        if (ch == 'x') ch = '_';
      }
      return s;
    });

TEST(Compressor, RelativeErrorBound) {
  auto field = smooth_field(Dims{40, 40}, 3);
  Options opt;
  opt.error_bound = 1e-4;
  opt.relative = true;
  const double range = testutil::value_range(field.const_view());
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * range * (1 + 1e-9));
  EXPECT_NEAR(reader.header().eb, 1e-4 * range, 1e-12 * range);
}

TEST(Compressor, SmoothDataCompressesWell) {
  auto field = smooth_field(Dims{64, 64, 64}, 5, /*noise=*/0.0);
  Options opt;
  opt.error_bound = 1e-4;
  Bytes archive = compress(field.const_view(), opt);
  double ratio = static_cast<double>(field.count() * sizeof(double)) /
                 static_cast<double>(archive.size());
  EXPECT_GT(ratio, 20.0);  // smooth fields must compress far below raw size
}

TEST(Compressor, CubicExactOnCubicPolynomials) {
  // Cubic spline interpolation reproduces cubic polynomials exactly at
  // interior points, so a polynomial field compresses to almost nothing with
  // the cubic kernel while the linear kernel pays for curvature everywhere.
  Dims dims{48, 48, 48};
  NdArray<double> field(dims);
  auto strides = dims.strides();
  for (std::size_t i = 0; i < dims.count(); ++i) {
    double x = static_cast<double>(i / strides[0]) / 48.0;
    double y = static_cast<double>((i / strides[1]) % 48) / 48.0;
    double z = static_cast<double>(i % 48) / 48.0;
    field[i] = x * x * x - 2 * y * y * y + 0.5 * z * z * z + x * y * z;
  }
  Options copt, lopt;
  copt.error_bound = lopt.error_bound = 1e-6;
  copt.interp = InterpKind::kCubic;
  lopt.interp = InterpKind::kLinear;
  auto ca = compress(field.const_view(), copt);
  auto la = compress(field.const_view(), lopt);
  EXPECT_LT(ca.size(), la.size());
}

TEST(Compressor, FloatInput) {
  auto field = smooth_field<float>(Dims{32, 32, 32}, 7, 0.01f);
  Options opt;
  opt.error_bound = 1e-3;
  opt.relative = false;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<float> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-3 * (1 + 1e-6));
}

TEST(Compressor, TypeMismatchRejected) {
  auto field = smooth_field(Dims{16, 16}, 8);
  Bytes archive = compress(field.const_view(), {});
  MemorySource src(std::move(archive));
  EXPECT_THROW(ProgressiveReader<float> reader(src), std::runtime_error);
}

TEST(Compressor, ConstantField) {
  NdArray<double> field(Dims{20, 20});
  for (std::size_t i = 0; i < field.count(); ++i) field[i] = 42.0;
  Options opt;
  opt.error_bound = 1e-6;
  Bytes archive = compress(field.const_view(), opt);
  EXPECT_LT(archive.size(), 2000u);  // nearly nothing to store
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-6);
}

TEST(Compressor, ExtremeValuesBecomeOutliers) {
  auto field = smooth_field(Dims{32, 32}, 9);
  field[100] = 1e18;   // far outside the quantizable range for a tight eb
  field[500] = -1e18;
  Options opt;
  opt.error_bound = 1e-9;
  opt.relative = false;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  // Outliers are stored exactly.
  EXPECT_EQ(reader.data()[100], 1e18);
  EXPECT_EQ(reader.data()[500], -1e18);
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-9 * (1 + 1e-9));
  std::uint64_t outliers = 0;
  for (auto& l : reader.header().block_levels.at(0)) outliers += l.outlier_count;
  EXPECT_GE(outliers, 2u);
}

TEST(Compressor, InvalidErrorBoundRejected) {
  auto field = smooth_field(Dims{8, 8}, 10);
  Options opt;
  opt.error_bound = 0.0;
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
  opt.error_bound = -1.0;
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
}

TEST(Compressor, OverflowingErrorBoundRejected) {
  // The quantizer bins at 2*eb.  Unchecked, both bounds below decode part of
  // the field to non-finite values.
  NdArray<double> field(Dims{16, 16});
  for (std::size_t i = 0; i < field.count(); ++i) {
    field[i] = static_cast<double>(i % 256);
  }
  Options opt;
  opt.relative = false;
  opt.error_bound = 1.5e308;  // finite, but 2*eb is inf
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);

  // A relative bound over a finite field spanning ±1e308: max - min is inf.
  NdArray<double> wide(Dims{16, 16});
  for (std::size_t i = 0; i < wide.count(); ++i) {
    wide[i] = 1e308 * (2.0 * static_cast<double>(i) / 255.0 - 1.0);
  }
  opt.relative = true;
  opt.error_bound = 1e-3;
  EXPECT_THROW(compress(wide.const_view(), opt), std::invalid_argument);
  EXPECT_THROW(resolve_error_bound(wide.const_view(), opt),
               std::invalid_argument);

  // A huge bound whose double is still finite keeps working.
  opt.relative = false;
  opt.error_bound = 1e300;
  MemorySource src(compress(field.const_view(), opt));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  for (double x : reader.data()) ASSERT_TRUE(std::isfinite(x));
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e300);
}

TEST(Compressor, HeaderDescribesArchive) {
  auto field = smooth_field(Dims{40, 30, 20}, 11);
  Options opt;
  opt.error_bound = 1e-5;
  opt.interp = InterpKind::kCubic;
  opt.prefix_bits = 2;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  const Header& h = reader.header();
  EXPECT_EQ(h.dims, Dims({40, 30, 20}));
  EXPECT_EQ(h.dtype, DataType::kFloat64);
  EXPECT_EQ(h.interp, InterpKind::kCubic);
  EXPECT_EQ(h.prefix_bits, 2u);
  // The default whole-field mode is a one-block grid of side max_extent.
  EXPECT_EQ(h.format, 2u);
  EXPECT_EQ(h.block_side, 40u);
  EXPECT_TRUE(h.levels.empty());
  ASSERT_EQ(h.block_levels.size(), 1u);
  const auto& levels = h.block_levels[0];
  EXPECT_EQ(levels.size(), LevelStructure::analyze(h.dims).num_levels);
  std::size_t total = 0;
  for (auto& l : levels) total += l.count;
  EXPECT_EQ(total, field.count());
}

TEST(Compressor, HeaderForgedLevelCountRejected) {
  // A v1 (legacy whole-field) header, written field by field since
  // serialize() no longer emits that layout.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(DataType::kFloat64));
  w.u8(1);      // rank
  w.varint(8);  // dims
  w.f64(1e-6);  // eb
  w.u8(static_cast<std::uint8_t>(InterpKind::kCubic));
  w.u8(0);      // prefix bits
  w.f64(0.0);   // data_min
  w.f64(1.0);   // data_max
  Bytes raw = w.take();
  // The level-count varint comes last: make it a huge ten-byte varint.
  // parse() must reject the count instead of letting it drive a
  // multi-terabyte resize().
  raw.insert(raw.end(), 9, 0xFF);
  raw.push_back(0x01);
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
}

TEST(Compressor, HeaderWholeFieldLayoutsNotWritten) {
  // Whole-field (side 0) layouts are read-only for every backend; side 1 is
  // no grid at all.
  for (auto backend : {BackendId::kInterp, BackendId::kWavelet}) {
    for (std::uint32_t side : {0u, 1u}) {
      Header h;
      h.dims = Dims{8};
      h.backend = backend;
      h.block_side = side;
      EXPECT_THROW(h.serialize(), std::logic_error) << side;
    }
  }
}

TEST(Compressor, HeaderSerializationRoundTrip) {
  Header h;
  h.dtype = DataType::kFloat32;
  h.dims = Dims{12, 34};
  h.eb = 3.5e-7;
  h.interp = InterpKind::kLinear;
  h.prefix_bits = 3;
  h.data_min = -2.5;
  h.data_max = 9.75;
  h.block_side = 34;  // one block
  h.block_levels.resize(1);
  auto& levels = h.block_levels[0];
  levels.resize(2);
  levels[0].count = 300;
  levels[0].progressive = true;
  levels[0].n_planes = 5;
  levels[0].loss = {0, 1, 2, 5, 10, 21};
  levels[0].outlier_count = 3;
  levels[1].count = 108;
  levels[1].progressive = false;
  levels[1].n_planes = 0;
  levels[1].loss = {0};
  Bytes raw = h.serialize();
  Header back = Header::parse(raw);
  EXPECT_EQ(back.dtype, h.dtype);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_EQ(back.eb, h.eb);
  EXPECT_EQ(back.interp, h.interp);
  EXPECT_EQ(back.prefix_bits, h.prefix_bits);
  EXPECT_EQ(back.data_min, h.data_min);
  EXPECT_EQ(back.data_max, h.data_max);
  EXPECT_EQ(back.format, 2u);
  EXPECT_EQ(back.block_side, 34u);
  ASSERT_EQ(back.block_levels.size(), 1u);
  ASSERT_EQ(back.block_levels[0].size(), 2u);
  EXPECT_EQ(back.block_levels[0][0].loss, levels[0].loss);
  EXPECT_EQ(back.block_levels[0][0].outlier_count, 3u);
  EXPECT_FALSE(back.block_levels[0][1].progressive);
}

TEST(Compressor, PrefixBitsVariantsRoundTrip) {
  auto field = smooth_field(Dims{32, 32, 16}, 12, 0.02);
  Options opt;
  opt.error_bound = 1e-4;
  // The header stores the width as a u8: unchecked, 256 was written as 0
  // and the reader skipped predictive decoding of every plane.
  for (unsigned prefix : {33u, 256u}) {
    opt.prefix_bits = prefix;
    EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument)
        << "prefix=" << prefix;
  }
  for (unsigned prefix = 0; prefix <= kPlaneCount; ++prefix) {
    opt.prefix_bits = prefix;
    Bytes archive = compress(field.const_view(), opt);
    MemorySource src(std::move(archive));
    ProgressiveReader<double> reader(src);
    EXPECT_EQ(reader.header().prefix_bits, prefix);
    const auto partial = reader.retrieve(Request::error_bound(1e-3));
    EXPECT_LE(linf(field.const_view(), reader.data()),
              partial.guaranteed_error * (1 + 1e-9))
        << "prefix=" << prefix;
    reader.retrieve(Request::full());
    double range = testutil::value_range(field.const_view());
    EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * range * (1 + 1e-9))
        << "prefix=" << prefix;
  }
}

TEST(Compressor, UnknownCodecPolicyRejected) {
  // Several blocks at the default thread count: the codec used to throw
  // inside the parallel block loop and terminate the process.
  auto field = smooth_field(Dims{64, 64}, 15, 0.02);
  Options opt;
  opt.block_side = 16;
  opt.codec = static_cast<CodecPolicy>(7);
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
}

TEST(Compressor, FileBackedArchive) {
  auto field = smooth_field(Dims{32, 32}, 13);
  Options opt;
  opt.error_bound = 1e-5;
  Bytes archive = compress(field.const_view(), opt);
  std::string path = ::testing::TempDir() + "/ipcomp_roundtrip.ipc";
  write_file(path, archive);

  FileSource src(path);
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  double range = testutil::value_range(field.const_view());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-5 * range * (1 + 1e-9));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipcomp
