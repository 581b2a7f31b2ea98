/**
 * @file
 * Tests for the image-domain preprocessing kernels, including the
 * Sequential-vs-Threaded equivalence property.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kfusion/backend.hpp"
#include "kfusion/backend_simd.hpp"
#include "kfusion/expf.hpp"
#include "kfusion/kernels.hpp"
#include "kfusion/raycast.hpp"
#include "support/rng.hpp"

namespace {

using namespace slambench::kfusion;
using slambench::math::CameraIntrinsics;
using slambench::math::Mat4f;
using slambench::math::Vec3f;
using slambench::support::Image;
using slambench::support::Rgb8;
using slambench::support::Rng;
using slambench::support::ThreadPool;

Image<uint16_t>
randomDepthMm(size_t w, size_t h, uint64_t seed, double hole_rate = 0.1)
{
    Rng rng(seed);
    Image<uint16_t> img(w, h);
    for (size_t i = 0; i < img.size(); ++i) {
        img[i] = rng.bernoulli(hole_rate)
                     ? 0
                     : static_cast<uint16_t>(
                           rng.uniformInt(int64_t{500}, int64_t{4000}));
    }
    return img;
}

// --- mm2meters ---

TEST(Mm2Meters, ConvertsUnits)
{
    Image<uint16_t> in(4, 4, uint16_t{1500});
    Image<float> out;
    mm2metersKernel(out, in, 1, nullptr);
    ASSERT_EQ(out.width(), 4u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], 1.5f);
}

TEST(Mm2Meters, SubsamplesByRatio)
{
    Image<uint16_t> in(8, 8);
    for (size_t y = 0; y < 8; ++y)
        for (size_t x = 0; x < 8; ++x)
            in(x, y) = static_cast<uint16_t>(1000 + 10 * x + 100 * y);
    Image<float> out;
    mm2metersKernel(out, in, 2, nullptr);
    ASSERT_EQ(out.width(), 4u);
    ASSERT_EQ(out.height(), 4u);
    // Pixel (1,1) of the output samples input (2,2).
    EXPECT_FLOAT_EQ(out(1, 1), (1000 + 20 + 200) / 1000.0f);
}

TEST(Mm2Meters, ZeroStaysInvalid)
{
    Image<uint16_t> in(2, 2, uint16_t{0});
    Image<float> out;
    mm2metersKernel(out, in, 1, nullptr);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], 0.0f);
}

// --- kfusion::expf ---

// The pipeline's exp, not the C library's ::expf.
using slambench::kfusion::expf;

uint32_t
floatBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

float
bitsFloat(uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/** Pinned (input, output) bit patterns of the scalar form. */
struct ExpPin
{
    uint32_t x;
    uint32_t y;
};

const ExpPin kExpPins[] = {
    {0x80000000, 0x3f800000}, // -0.0 -> 1
    {0xb22bcc77, 0x3f800000}, // -1e-8 -> 1
    // -0x1.f8cbb2p+5: glibc's FMA build gives 0x1.f45326p-92.
    {0xc27c65d9, 0x11fa2992},
    {0xc2cff1b4, 0x00000001}, // the underflow bound -> 2^-149
    {0xc2cff1b5, 0x00000000}, // its lower neighbour -> 0
    {0xc2af0000, 0x006cb2bc}, // -87.5 -> subnormal
    // Neighbours across table-index boundaries (index in comments).
    {0xbc317217, 0x3f7d3e0c}, // 0
    {0xbc317218, 0x3f7d3e0c}, // 31
    {0xbeabe687, 0x3f36fd92}, // 17
    {0xbeabe688, 0x3f36fd92}, // 16
    {0xbeb6fda8, 0x3f3311c4}, // 16
    {0xbeb6fda9, 0x3f3311c4}, // 15
    {0xbf2eac4f, 0x3f0164d2}, // 1
    {0xbf2eac50, 0x3f0164d2}, // 0
};

TEST(KfusionExp, PinnedBitPatterns)
{
    for (const ExpPin &pin : kExpPins)
        EXPECT_EQ(floatBits(expf(bitsFloat(pin.x))), pin.y)
            << std::hexfloat << bitsFloat(pin.x);
}

TEST(KfusionExp, TableHoldsCorrectlyRoundedPowersOfTwo)
{
    // A one-ulp error in a double entry rarely moves a float result,
    // so check the entries themselves: bits(RN(2^(i/32))) once the
    // exponent offset is added back. The long double reference has
    // 11 more bits than the entries need.
    if (std::numeric_limits<long double>::digits < 64)
        GTEST_SKIP() << "long double too narrow for the reference";
    for (uint64_t i = 0; i < (1u << kExpTableBits); ++i) {
        const double expect =
            static_cast<double>(std::exp2l(static_cast<long double>(i) /
                                           (1u << kExpTableBits)));
        uint64_t bits = kExpTable[i] + (i << (52 - kExpTableBits));
        double got;
        std::memcpy(&got, &bits, sizeof(got));
        EXPECT_EQ(got, expect) << "entry " << i;
    }
}

TEST(KfusionExp, SpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(expf(-inf), 0.0f);
    EXPECT_EQ(expf(inf), inf);
    EXPECT_EQ(expf(std::nextafter(kExpOverflow, inf)), inf);
    EXPECT_LT(expf(kExpOverflow), inf);
    EXPECT_TRUE(std::isnan(expf(std::numeric_limits<float>::quiet_NaN())));
    EXPECT_EQ(expf(0.0f), 1.0f);
}

TEST(KfusionExp, Avx2LanesMatchScalar)
{
    if (!simdBackendIsAccelerated())
        GTEST_SKIP() << "AVX2 kernels not available on this host";
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> xs = {-inf, inf, -1e30f, -1000.0f};
    // Every 97th bit pattern of [-110, 0] (the filter's range), every
    // 997th of the other non-NaN floats ...
    for (uint32_t b = 0x80000000u; b <= floatBits(-110.0f); b += 97)
        xs.push_back(bitsFloat(b));
    for (uint32_t b = floatBits(-110.0f); b <= floatBits(-inf); b += 997)
        xs.push_back(bitsFloat(b));
    for (uint32_t b = 0; b <= floatBits(inf); b += 997)
        xs.push_back(bitsFloat(b));
    // ... and +-4 ulp around every pinned input and both bounds.
    std::vector<uint32_t> centres = {floatBits(kExpUnderflow),
                                     floatBits(kExpOverflow)};
    for (const ExpPin &pin : kExpPins)
        centres.push_back(pin.x);
    for (uint32_t c : centres)
        for (uint32_t b = c - 4; b != c + 5; ++b)
            if (!std::isnan(bitsFloat(b)))
                xs.push_back(bitsFloat(b));
    // Whole vectors only: expfAvx2 runs a short tail on the scalar.
    while (xs.size() % 8 != 0)
        xs.push_back(0.0f);

    std::vector<float> lanes(xs.size());
    slambench::kfusion::detail::expfAvx2(xs.data(), lanes.data(),
                                         xs.size());
    size_t misses = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
        if (floatBits(lanes[i]) != floatBits(expf(xs[i])) &&
            ++misses <= 5)
            ADD_FAILURE() << "lane differs at x = " << std::hexfloat
                          << xs[i] << ": " << lanes[i] << " vs "
                          << expf(xs[i]);
    }
    EXPECT_EQ(misses, 0u) << "of " << xs.size() << " inputs";
    EXPECT_GT(xs.size(), 11000000u);
}

// --- bilateral filter ---

TEST(Bilateral, SmoothsGaussianNoise)
{
    Rng rng(1);
    Image<float> in(64, 64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 2.0f + static_cast<float>(rng.normal(0.0, 0.01));
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr,
                          scalarKernelBackend());

    double var_in = 0.0, var_out = 0.0;
    for (size_t i = 0; i < in.size(); ++i) {
        var_in += (in[i] - 2.0f) * (in[i] - 2.0f);
        var_out += (out[i] - 2.0f) * (out[i] - 2.0f);
    }
    EXPECT_LT(var_out, var_in / 3.0);
}

TEST(Bilateral, PreservesSharpEdges)
{
    // Step edge: left half 1 m, right half 3 m (>> e_delta).
    Image<float> in(32, 8);
    for (size_t y = 0; y < 8; ++y)
        for (size_t x = 0; x < 32; ++x)
            in(x, y) = x < 16 ? 1.0f : 3.0f;
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr,
                          scalarKernelBackend());
    EXPECT_NEAR(out(15, 4), 1.0f, 1e-4f);
    EXPECT_NEAR(out(16, 4), 3.0f, 1e-4f);
}

TEST(Bilateral, InvalidPixelsStayInvalidAndDoNotBleed)
{
    Image<float> in(16, 16, 2.0f);
    in(8, 8) = 0.0f;
    Image<float> out;
    bilateralFilterKernel(out, in, 2, 4.0f, 0.1f, nullptr,
                          scalarKernelBackend());
    EXPECT_FLOAT_EQ(out(8, 8), 0.0f);
    // Neighbors should remain exactly 2 (hole contributes nothing).
    EXPECT_NEAR(out(7, 8), 2.0f, 1e-5f);
}

TEST(Bilateral, RadiusZeroIsIdentity)
{
    Rng rng(2);
    Image<float> in(8, 8);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(rng.uniform(1.0, 3.0));
    Image<float> out;
    bilateralFilterKernel(out, in, 0, 4.0f, 0.1f, nullptr,
                          scalarKernelBackend());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_FLOAT_EQ(out[i], in[i]);
}

// --- half sample ---

TEST(HalfSample, HalvesDimensions)
{
    Image<float> in(16, 12, 2.0f);
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    EXPECT_EQ(out.width(), 8u);
    EXPECT_EQ(out.height(), 6u);
    EXPECT_FLOAT_EQ(out(3, 3), 2.0f);
}

TEST(HalfSample, RejectsOutliersInBlock)
{
    Image<float> in(4, 4, 2.0f);
    in(1, 1) = 10.0f; // outlier within block (0,0)
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    // The outlier is farther than e_delta from the reference (2.0),
    // so the block average excludes it.
    EXPECT_NEAR(out(0, 0), 2.0f, 1e-5f);
}

TEST(HalfSample, InvalidReferenceGivesInvalidOutput)
{
    Image<float> in(4, 4, 2.0f);
    in(0, 0) = 0.0f;
    Image<float> out;
    halfSampleRobustKernel(out, in, 0.3f, nullptr);
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
}

// --- depth2vertex ---

TEST(Depth2Vertex, BackProjectsCenterPixel)
{
    const auto k = CameraIntrinsics::fromFov(64, 48, 1.0f);
    Image<float> depth(64, 48, 2.0f);
    Image<Vec3f> vertex;
    depth2vertexKernel(vertex, depth, k, nullptr);
    // Pixel at the principal point back-projects onto the optical
    // axis.
    const Vec3f center = vertex(31, 23); // +0.5 offset ~ cx,cy
    EXPECT_NEAR(center.z, 2.0f, 1e-5f);
    EXPECT_NEAR(center.x, 0.0f, 0.05f);
}

TEST(Depth2Vertex, InvalidDepthGivesZeroVertex)
{
    const auto k = CameraIntrinsics::fromFov(8, 8, 1.0f);
    Image<float> depth(8, 8, 0.0f);
    Image<Vec3f> vertex;
    depth2vertexKernel(vertex, depth, k, nullptr);
    for (size_t i = 0; i < vertex.size(); ++i)
        EXPECT_EQ(vertex[i].squaredNorm(), 0.0f);
}

// --- vertex2normal ---

TEST(Vertex2Normal, FlatPlaneGivesConstantNormal)
{
    // A fronto-parallel plane at z=2: normals must be (0,0,-1)
    // (toward the camera).
    const auto k = CameraIntrinsics::fromFov(32, 32, 1.0f);
    Image<float> depth(32, 32, 2.0f);
    Image<Vec3f> vertex, normal;
    depth2vertexKernel(vertex, depth, k, nullptr);
    vertex2normalKernel(normal, vertex, nullptr, scalarKernelBackend());
    for (size_t y = 4; y < 28; ++y) {
        for (size_t x = 4; x < 28; ++x) {
            const Vec3f n = normal(x, y);
            EXPECT_NEAR(n.z, -1.0f, 1e-3f);
            EXPECT_NEAR(n.norm(), 1.0f, 1e-5f);
        }
    }
}

TEST(Vertex2Normal, BorderAndInvalidAreZero)
{
    const auto k = CameraIntrinsics::fromFov(8, 8, 1.0f);
    Image<float> depth(8, 8, 2.0f);
    depth(3, 3) = 0.0f;
    Image<Vec3f> vertex, normal;
    depth2vertexKernel(vertex, depth, k, nullptr);
    vertex2normalKernel(normal, vertex, nullptr, scalarKernelBackend());
    EXPECT_EQ(normal(7, 7).squaredNorm(), 0.0f); // border
    EXPECT_EQ(normal(3, 3).squaredNorm(), 0.0f); // invalid center
    EXPECT_EQ(normal(2, 3).squaredNorm(), 0.0f); // neighbor of hole
}

// --- Sequential == Threaded (property over kernels) ---

class ImplEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ImplEquivalence, AllKernelsMatch)
{
    const uint64_t seed = GetParam();
    ThreadPool pool(3);
    const auto k = CameraIntrinsics::fromFov(40, 30, 1.0f);
    const Image<uint16_t> raw = randomDepthMm(40, 30, seed);

    Image<float> d_seq, d_par;
    mm2metersKernel(d_seq, raw, 1, nullptr);
    mm2metersKernel(d_par, raw, 1, &pool);
    for (size_t i = 0; i < d_seq.size(); ++i)
        ASSERT_FLOAT_EQ(d_seq[i], d_par[i]);

    Image<float> f_seq, f_par;
    bilateralFilterKernel(f_seq, d_seq, 2, 4.0f, 0.1f, nullptr,
                          scalarKernelBackend());
    bilateralFilterKernel(f_par, d_seq, 2, 4.0f, 0.1f, &pool,
                          scalarKernelBackend());
    for (size_t i = 0; i < f_seq.size(); ++i)
        ASSERT_FLOAT_EQ(f_seq[i], f_par[i]);

    Image<float> h_seq, h_par;
    halfSampleRobustKernel(h_seq, f_seq, 0.3f, nullptr);
    halfSampleRobustKernel(h_par, f_seq, 0.3f, &pool);
    for (size_t i = 0; i < h_seq.size(); ++i)
        ASSERT_FLOAT_EQ(h_seq[i], h_par[i]);

    Image<Vec3f> v_seq, v_par;
    depth2vertexKernel(v_seq, f_seq, k, nullptr);
    depth2vertexKernel(v_par, f_seq, k, &pool);
    for (size_t i = 0; i < v_seq.size(); ++i)
        ASSERT_EQ(v_seq[i], v_par[i]);

    Image<Vec3f> n_seq, n_par;
    vertex2normalKernel(n_seq, v_seq, nullptr, scalarKernelBackend());
    vertex2normalKernel(n_par, v_seq, &pool, scalarKernelBackend());
    for (size_t i = 0; i < n_seq.size(); ++i)
        ASSERT_EQ(n_seq[i], n_par[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

// --- an output of the right size is overwritten, not cleared ---

/** A @p w x @p h image whose every byte is 0xa5 (non-zero floats). */
template <typename T>
Image<T>
prefilled(size_t w, size_t h)
{
    Image<T> img(w, h);
    std::memset(static_cast<void *>(img.data()), 0xa5,
                img.size() * sizeof(T));
    return img;
}

template <typename T>
bool
sameBytes(const Image<T> &a, const Image<T> &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(OutputReuse, PrefilledOutputMatchesFresh)
{
    // The preprocessing, raycast and render kernels keep an output
    // that already has the right size (the pipeline's, from the
    // previous frame) instead of clearing it, so none of its old
    // bytes may survive the call.
    ThreadPool pool(3);
    const auto k = CameraIntrinsics::fromFov(40, 30, 1.0f);
    const Image<uint16_t> raw = randomDepthMm(80, 60, 7, 0.2);

    // A small map of each kind, fused from that depth, to march.
    Image<float> metric;
    mm2metersKernel(metric, raw, 2, nullptr);
    TsdfVolume dense(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    SparseTsdfVolume sparse(32, 2.0f, Vec3f{-1.0f, -1.0f, 0.0f});
    WorkCounts work;
    dense.integrate(metric, k, Mat4f{}, 0.1f, 100.0f, work, nullptr,
                    scalarKernelBackend());
    sparse.integrate(metric, k, Mat4f{}, 0.1f, 100.0f, work, nullptr,
                     scalarKernelBackend());
    RaycastParams params;
    params.nearPlane = 0.1f;
    params.farPlane = 4.0f;
    params.step = dense.voxelSize();
    params.largeStep = 0.075f;

    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        Image<float> depth;
        mm2metersKernel(depth, raw, 2, p);
        Image<float> depth_reused = prefilled<float>(40, 30);
        mm2metersKernel(depth_reused, raw, 2, p);
        EXPECT_TRUE(sameBytes(depth, depth_reused)) << "mm2meters";

        Image<float> half;
        halfSampleRobustKernel(half, depth, 0.3f, p);
        Image<float> half_reused = prefilled<float>(20, 15);
        halfSampleRobustKernel(half_reused, depth, 0.3f, p);
        EXPECT_TRUE(sameBytes(half, half_reused)) << "half_sample";

        Image<Vec3f> vertex;
        depth2vertexKernel(vertex, depth, k, p);
        Image<Vec3f> vertex_reused = prefilled<Vec3f>(40, 30);
        depth2vertexKernel(vertex_reused, depth, k, p);
        EXPECT_TRUE(sameBytes(vertex, vertex_reused)) << "depth2vertex";

        for (const std::string &name : kernelBackendNames()) {
            const KernelBackend &backend = *findKernelBackend(name);
            for (int radius : {0, 2}) {
                Image<float> filtered;
                bilateralFilterKernel(filtered, depth, radius, 4.0f,
                                      0.1f, p, backend);
                Image<float> filtered_reused = prefilled<float>(40, 30);
                bilateralFilterKernel(filtered_reused, depth, radius,
                                      4.0f, 0.1f, p, backend);
                EXPECT_TRUE(sameBytes(filtered, filtered_reused))
                    << "bilateral_filter radius " << radius << " on "
                    << name;
            }

            Image<Vec3f> normal;
            vertex2normalKernel(normal, vertex, p, backend);
            Image<Vec3f> normal_reused = prefilled<Vec3f>(40, 30);
            vertex2normalKernel(normal_reused, vertex, p, backend);
            EXPECT_TRUE(sameBytes(normal, normal_reused))
                << "vertex2normal on " << name;

            const auto check_map = [&](const auto &map,
                                       const char *kind) {
                Image<Vec3f> hits, normals;
                raycastKernel(hits, normals, map, k, Mat4f{}, params,
                              work, p, backend);
                Image<Vec3f> hits_reused = prefilled<Vec3f>(40, 30);
                Image<Vec3f> normals_reused = prefilled<Vec3f>(40, 30);
                raycastKernel(hits_reused, normals_reused, map, k,
                              Mat4f{}, params, work, p, backend);
                EXPECT_TRUE(sameBytes(hits, hits_reused) &&
                            sameBytes(normals, normals_reused))
                    << "raycast on " << kind << ", " << name;

                Image<Rgb8> render;
                renderVolumeKernel(render, map, k, Mat4f{}, params,
                                   work, p, backend);
                Image<Rgb8> render_reused = prefilled<Rgb8>(40, 30);
                renderVolumeKernel(render_reused, map, k, Mat4f{},
                                   params, work, p, backend);
                EXPECT_TRUE(sameBytes(render, render_reused))
                    << "render_volume on " << kind << ", " << name;

                Image<Rgb8> shaded;
                renderFromNormalsKernel(shaded, normals, 0.0, work, p);
                Image<Rgb8> shaded_reused = prefilled<Rgb8>(40, 30);
                renderFromNormalsKernel(shaded_reused, normals, 0.0,
                                        work, p);
                EXPECT_TRUE(sameBytes(shaded, shaded_reused))
                    << "render_from_normals on " << kind << ", "
                    << name;
            };
            check_map(dense, "dense");
            check_map(sparse, "sparse");
        }
    }
}

TEST(WorkHelpers, BilateralItemsPerPixel)
{
    EXPECT_DOUBLE_EQ(bilateralItemsPerPixel(2), 25.0);
    EXPECT_DOUBLE_EQ(bilateralItemsPerPixel(0), 1.0);
}

TEST(BackendRegistry, BuiltinsAreRegistered)
{
    // One backend per ISA, in table order.
    EXPECT_EQ(kernelBackendNames(),
              (std::vector<std::string>{"scalar", "simd"}));
    EXPECT_EQ(findKernelBackend("scalar"), &scalarKernelBackend());
    // The simd row answers to its name on every host, and it is the
    // AVX2 backend exactly when that backend runs here.
    const KernelBackend *simd = findKernelBackend("simd");
    ASSERT_NE(simd, nullptr);
    EXPECT_STREQ(simd->name(), "simd");
    EXPECT_NE(simd, &scalarKernelBackend());
    EXPECT_EQ(simd == detail::avx2Backend(), simdBackendIsAccelerated());
    // "auto" is a resolver keyword, never a backend name.
    EXPECT_EQ(findKernelBackend("auto"), nullptr);
    EXPECT_EQ(findKernelBackend("mixed"), nullptr);
}

TEST(BackendRegistry, UnknownBackendErrorsCleanly)
{
    std::string error;
    EXPECT_EQ(resolveKernelBackend("no-such-backend", &error),
              nullptr);
    EXPECT_NE(error.find("no-such-backend"), std::string::npos);
    // The message lists every valid choice.
    EXPECT_NE(error.find("(valid: auto, scalar, simd)"),
              std::string::npos)
        << error;
}

TEST(BackendRegistry, AutoResolvesDeterministically)
{
    const KernelBackend *first = resolveKernelBackend("auto");
    const KernelBackend *second = resolveKernelBackend("auto");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first, second);

    // "auto" dispatches by CPUID: simd iff the AVX2 kernels actually
    // run on this host, scalar otherwise.
    const char *expected =
        simdBackendIsAccelerated() ? "simd" : "scalar";
    EXPECT_STREQ(first->name(), expected);
    EXPECT_EQ(first, findKernelBackend(expected));
}

} // namespace
