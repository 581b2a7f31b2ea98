#include "kfusion/config.hpp"

#include <sstream>

#include "kfusion/backend.hpp"
#include "support/strings.hpp"

namespace slambench::kfusion {

std::string
KFusionConfig::validate() const
{
    if (computeSizeRatio != 1 && computeSizeRatio != 2 &&
        computeSizeRatio != 4 && computeSizeRatio != 8)
        return "computeSizeRatio must be one of {1, 2, 4, 8}";
    if (!(icpThreshold > 0.0f))
        return "icpThreshold must be positive";
    if (!(mu > 0.0f))
        return "mu must be positive";
    if (integrationRate < 1)
        return "integrationRate must be >= 1";
    if (volumeResolution < 16 || volumeResolution > 1024)
        return "volumeResolution must be in [16, 1024]";
    if (!(volumeSize > 0.0f))
        return "volumeSize must be positive";
    if (pyramidIterations.empty() || pyramidIterations.size() > 5)
        return "pyramidIterations must have 1..5 levels";
    for (int iters : pyramidIterations)
        if (iters < 0 || iters > 100)
            return "per-level ICP iterations must be in [0, 100]";
    if (trackingRate < 1)
        return "trackingRate must be >= 1";
    if (renderingRate < 1)
        return "renderingRate must be >= 1";
    if (filterRadius < 0 || filterRadius > 8)
        return "filterRadius must be in [0, 8]";
    if (!(nearPlane >= 0.0f) || !(farPlane > nearPlane))
        return "need 0 <= nearPlane < farPlane";
    if (modeledImplementation < 0 ||
        modeledImplementation >= kNumModeledImplementations)
        return "modeledImplementation must be in [0, " +
               std::to_string(kNumModeledImplementations - 1) + "]";
    std::string backend_error;
    if (!resolveKernelBackend(kernelBackend, &backend_error))
        return backend_error;
    if (!volumeBackendNameValid(volumeBackend))
        return "volumeBackend must be one of {dense, sparse}";
    return "";
}

std::string
KFusionConfig::toString() const
{
    std::ostringstream out;
    out << "csr=" << computeSizeRatio << " icp=" << icpThreshold
        << " mu=" << mu << " ir=" << integrationRate
        << " vr=" << volumeResolution << " vs=" << volumeSize
        << " pyr=";
    for (size_t i = 0; i < pyramidIterations.size(); ++i) {
        if (i)
            out << ',';
        out << pyramidIterations[i];
    }
    out << " tr=" << trackingRate << " rr=" << renderingRate
        << " kb=" << kernelBackend << " vol=" << volumeBackend;
    return out.str();
}

const char *
implementationName(Implementation impl)
{
    return impl == Implementation::Sequential ? "sequential" : "threaded";
}

bool
volumeBackendNameValid(const std::string &name)
{
    return name == "dense" || name == "sparse";
}

} // namespace slambench::kfusion
