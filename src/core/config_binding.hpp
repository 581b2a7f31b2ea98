#ifndef SLAMBENCH_CORE_CONFIG_BINDING_HPP
#define SLAMBENCH_CORE_CONFIG_BINDING_HPP

/**
 * @file
 * Binding between the HyperMapper design space and KFusionConfig.
 *
 * The ten explored parameters are the ones named by the paper and
 * its companion studies: compute-size ratio, ICP threshold, mu,
 * integration rate, volume resolution, the three pyramid iteration
 * counts, tracking rate, and rendering rate. An eleventh dimension,
 * "implementation", is KFusionConfig::modeledImplementation: the
 * kernel implementation the device model assumes.
 */

#include "hypermapper/param_space.hpp"
#include "kfusion/config.hpp"

namespace slambench::core {

/**
 * Build the KinectFusion design space with the ranges explored in
 * the paper's companion DSE studies and defaults equal to the
 * KinectFusion defaults.
 */
hypermapper::ParameterSpace kfusionParameterSpace();

/**
 * Decode a design-space point into a runnable configuration.
 *
 * @param space The space created by kfusionParameterSpace().
 * @param point One configuration from that space.
 * @return the corresponding KFusionConfig (other fields default).
 */
kfusion::KFusionConfig pointToConfig(
    const hypermapper::ParameterSpace &space,
    const hypermapper::Point &point);

/**
 * Encode a configuration as a design-space point (inverse of
 * pointToConfig for the explored fields).
 */
hypermapper::Point configToPoint(
    const hypermapper::ParameterSpace &space,
    const kfusion::KFusionConfig &config);

} // namespace slambench::core

#endif // SLAMBENCH_CORE_CONFIG_BINDING_HPP
