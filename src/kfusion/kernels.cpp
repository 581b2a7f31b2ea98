#include "kfusion/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "kfusion/backend.hpp"
#include "kfusion/expf.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace slambench::kfusion {

namespace {

/**
 * Run @p body(y) for each row, either sequentially or on the pool.
 */
void
forEachRow(size_t rows, support::ThreadPool *pool,
           const std::function<void(size_t)> &body)
{
    if (pool) {
        pool->parallelFor(0, rows, body);
    } else {
        for (size_t y = 0; y < rows; ++y)
            body(y);
    }
}

} // namespace

void
mm2metersKernel(Image<float> &out, const Image<uint16_t> &in, int ratio,
                support::ThreadPool *pool)
{
    if (ratio < 1)
        support::panic("mm2metersKernel: ratio must be >= 1");
    const size_t w = in.width() / static_cast<size_t>(ratio);
    const size_t h = in.height() / static_cast<size_t>(ratio);
    out.sizeForOverwrite(w, h);
    const size_t r = static_cast<size_t>(ratio);

    forEachRow(h, pool, [&](size_t y) {
        for (size_t x = 0; x < w; ++x)
            out(x, y) =
                static_cast<float>(in(x * r, y * r)) / 1000.0f;
    });
}

float
expf(float x)
{
    if (x < kExpUnderflow)
        return 0.0f;
    if (x > kExpOverflow)
        return std::numeric_limits<float>::infinity();
    // x * N / ln2 = k + r, k an integer, r in [-1/2, 1/2].
    const double z = kExpInvLn2N * static_cast<double>(x);
    double kd = z + kExpShift;
    uint64_t ki;
    std::memcpy(&ki, &kd, sizeof(ki));
    kd -= kExpShift;
    const double r = z - kd;
    // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1).
    const uint64_t t =
        kExpTable[ki % (1 << kExpTableBits)] + (ki << (52 - kExpTableBits));
    double s;
    std::memcpy(&s, &t, sizeof(s));
    const double p = kExpC0 * r + kExpC1;
    const double r2 = r * r;
    double y = kExpC2 * r + 1.0;
    y = p * r2 + y;
    y = y * s;
    return static_cast<float>(y);
}

void
bilateralPixels(const BilateralContext &ctx, size_t y, size_t x_begin,
                size_t x_end)
{
    const size_t w = ctx.width;
    const size_t h = ctx.height;
    const int radius = ctx.radius;
    const int side = 2 * radius + 1;
    for (size_t x = x_begin; x < x_end; ++x) {
        const float center = ctx.in[y * w + x];
        if (center <= 0.0f) {
            ctx.out[y * w + x] = 0.0f;
            continue;
        }
        float sum = 0.0f;
        float weight = 0.0f;
        for (int dy = -radius; dy <= radius; ++dy) {
            const long yy = static_cast<long>(y) + dy;
            if (yy < 0 || yy >= static_cast<long>(h))
                continue;
            for (int dx = -radius; dx <= radius; ++dx) {
                const long xx = static_cast<long>(x) + dx;
                if (xx < 0 || xx >= static_cast<long>(w))
                    continue;
                const float sample =
                    ctx.in[static_cast<size_t>(yy) * w +
                           static_cast<size_t>(xx)];
                if (sample <= 0.0f)
                    continue;
                const float diff = sample - center;
                const float range = expf(-diff * diff * ctx.inv2e2);
                const float wgt =
                    ctx.spatial[static_cast<size_t>(
                        (dy + radius) * side + dx + radius)] *
                    range;
                sum += wgt * sample;
                weight += wgt;
            }
        }
        ctx.out[y * w + x] = weight > 0.0f ? sum / weight : 0.0f;
    }
}

void
bilateralFilterKernel(Image<float> &out, const Image<float> &in,
                      int radius, float gaussian_delta, float e_delta,
                      support::ThreadPool *pool,
                      const KernelBackend &backend)
{
    const size_t w = in.width();
    const size_t h = in.height();
    out.sizeForOverwrite(w, h);

    if (radius == 0) {
        for (size_t i = 0; i < in.size(); ++i)
            out[i] = in[i];
        return;
    }

    // Precompute the spatial Gaussian window.
    const int side = 2 * radius + 1;
    std::vector<float> spatial(static_cast<size_t>(side * side));
    {
        TRACE_SCOPE("bilateral_filter.lut");
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                const float d2 =
                    static_cast<float>(dx * dx + dy * dy);
                spatial[static_cast<size_t>((dy + radius) * side +
                                            dx + radius)] =
                    expf(-d2 / (2.0f * gaussian_delta *
                                gaussian_delta));
            }
        }
    }

    BilateralContext ctx;
    ctx.in = in.data();
    ctx.out = out.data();
    ctx.width = w;
    ctx.height = h;
    ctx.radius = radius;
    ctx.spatial = spatial.data();
    ctx.inv2e2 = 1.0f / (2.0f * e_delta * e_delta);
    forEachRow(h, pool, [&](size_t y) { backend.bilateralRow(ctx, y); });
}

void
halfSampleRobustKernel(Image<float> &out, const Image<float> &in,
                       float e_delta, support::ThreadPool *pool)
{
    const size_t w = in.width() / 2;
    const size_t h = in.height() / 2;
    out.sizeForOverwrite(w, h);

    forEachRow(h, pool, [&](size_t y) {
        for (size_t x = 0; x < w; ++x) {
            const float center = in(2 * x, 2 * y);
            if (center <= 0.0f) {
                out(x, y) = 0.0f;
                continue;
            }
            float sum = 0.0f;
            int count = 0;
            for (int dy = 0; dy < 2; ++dy) {
                for (int dx = 0; dx < 2; ++dx) {
                    const size_t xx =
                        std::min(2 * x + static_cast<size_t>(dx),
                                 in.width() - 1);
                    const size_t yy =
                        std::min(2 * y + static_cast<size_t>(dy),
                                 in.height() - 1);
                    const float sample = in(xx, yy);
                    if (sample <= 0.0f)
                        continue;
                    if (std::abs(sample - center) <= e_delta) {
                        sum += sample;
                        ++count;
                    }
                }
            }
            out(x, y) = count > 0 ? sum / static_cast<float>(count)
                                  : 0.0f;
        }
    });
}

void
depth2vertexKernel(Image<Vec3f> &out, const Image<float> &depth,
                   const CameraIntrinsics &intrinsics,
                   support::ThreadPool *pool)
{
    const size_t w = depth.width();
    const size_t h = depth.height();
    out.sizeForOverwrite(w, h);

    forEachRow(h, pool, [&](size_t y) {
        for (size_t x = 0; x < w; ++x) {
            const float d = depth(x, y);
            if (d <= 0.0f) {
                out(x, y) = Vec3f{};
                continue;
            }
            out(x, y) = intrinsics.backProject(
                static_cast<float>(x) + 0.5f,
                static_cast<float>(y) + 0.5f, d);
        }
    });
}

void
vertex2normalPixels(const Vertex2NormalContext &ctx, size_t y,
                    size_t x_begin, size_t x_end)
{
    const size_t w = ctx.width;
    const size_t h = ctx.height;
    for (size_t x = x_begin; x < x_end; ++x) {
        Vec3f &out = ctx.out[y * w + x];
        if (x + 1 >= w || y + 1 >= h) {
            out = Vec3f{};
            continue;
        }
        const Vec3f &center = ctx.in[y * w + x];
        const Vec3f &right = ctx.in[y * w + x + 1];
        const Vec3f &down = ctx.in[(y + 1) * w + x];
        if (center.squaredNorm() == 0.0f ||
            right.squaredNorm() == 0.0f ||
            down.squaredNorm() == 0.0f) {
            out = Vec3f{};
            continue;
        }
        const Vec3f du = right - center;
        const Vec3f dv = down - center;
        Vec3f n = du.cross(dv);
        if (n.squaredNorm() < 1e-18f) {
            out = Vec3f{};
            continue;
        }
        n = n.normalized();
        // Orient toward the camera (vertices are camera-frame).
        if (n.dot(center) > 0.0f)
            n = -n;
        out = n;
    }
}

void
vertex2normalKernel(Image<Vec3f> &out, const Image<Vec3f> &vertex,
                    support::ThreadPool *pool,
                    const KernelBackend &backend)
{
    out.sizeForOverwrite(vertex.width(), vertex.height());
    const Vertex2NormalContext ctx{vertex.data(), out.data(),
                                   vertex.width(), vertex.height()};
    forEachRow(ctx.height, pool,
               [&](size_t y) { backend.vertex2normalRow(ctx, y); });
}

} // namespace slambench::kfusion
