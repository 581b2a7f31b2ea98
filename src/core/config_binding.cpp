#include "core/config_binding.hpp"

namespace slambench::core {

using hypermapper::ParameterSpace;
using hypermapper::Point;
using kfusion::KFusionConfig;

ParameterSpace
kfusionParameterSpace()
{
    ParameterSpace space;
    space.addOrdinal("compute_size_ratio", {1, 2, 4, 8}, 1);
    space.addReal("icp_threshold", 1e-6, 1e-4, 1e-5,
                  /*log_scale=*/true);
    space.addReal("mu", 0.02, 0.2, 0.1);
    space.addInteger("integration_rate", 1, 15, 2);
    space.addOrdinal("volume_resolution", {64, 96, 128, 192, 256},
                     256);
    space.addInteger("pyramid_level0", 0, 12, 10);
    space.addInteger("pyramid_level1", 0, 8, 5);
    space.addInteger("pyramid_level2", 0, 6, 4);
    space.addInteger("tracking_rate", 1, 4, 1);
    space.addInteger("rendering_rate", 1, 8, 4);
    // Kernel implementation axis (paper sec. II: the same algorithmic
    // configuration can run on differently optimized kernels). The
    // ordinal is KFusionConfig::modeledImplementation: 0 = reference
    // kernels, 1 = vectorized kernels. Only the device model reads
    // it, so this dimension moves the performance/energy axes, never
    // accuracy.
    space.addOrdinal("implementation", {0, 1}, 0);
    return space;
}

KFusionConfig
pointToConfig(const ParameterSpace &space, const Point &point)
{
    const Point p = space.canonicalize(point);
    KFusionConfig config;
    config.computeSizeRatio = static_cast<int>(
        p[space.indexOf("compute_size_ratio")]);
    config.icpThreshold =
        static_cast<float>(p[space.indexOf("icp_threshold")]);
    config.mu = static_cast<float>(p[space.indexOf("mu")]);
    config.integrationRate =
        static_cast<int>(p[space.indexOf("integration_rate")]);
    config.volumeResolution =
        static_cast<int>(p[space.indexOf("volume_resolution")]);
    config.pyramidIterations = {
        static_cast<int>(p[space.indexOf("pyramid_level0")]),
        static_cast<int>(p[space.indexOf("pyramid_level1")]),
        static_cast<int>(p[space.indexOf("pyramid_level2")]),
    };
    config.trackingRate =
        static_cast<int>(p[space.indexOf("tracking_rate")]);
    config.renderingRate =
        static_cast<int>(p[space.indexOf("rendering_rate")]);
    config.modeledImplementation =
        static_cast<int>(p[space.indexOf("implementation")]);
    return config;
}

Point
configToPoint(const ParameterSpace &space, const KFusionConfig &config)
{
    Point p(space.size(), 0.0);
    p[space.indexOf("compute_size_ratio")] = config.computeSizeRatio;
    p[space.indexOf("icp_threshold")] = config.icpThreshold;
    p[space.indexOf("mu")] = config.mu;
    p[space.indexOf("integration_rate")] = config.integrationRate;
    p[space.indexOf("volume_resolution")] = config.volumeResolution;
    p[space.indexOf("pyramid_level0")] =
        config.pyramidIterations.size() > 0
            ? config.pyramidIterations[0]
            : 0;
    p[space.indexOf("pyramid_level1")] =
        config.pyramidIterations.size() > 1
            ? config.pyramidIterations[1]
            : 0;
    p[space.indexOf("pyramid_level2")] =
        config.pyramidIterations.size() > 2
            ? config.pyramidIterations[2]
            : 0;
    p[space.indexOf("tracking_rate")] = config.trackingRate;
    p[space.indexOf("rendering_rate")] = config.renderingRate;
    p[space.indexOf("implementation")] = config.modeledImplementation;
    return space.canonicalize(p);
}

} // namespace slambench::core
