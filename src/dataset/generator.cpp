#include "dataset/generator.hpp"

#include <cmath>

#include "metrics/timing.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"

namespace slambench::dataset {

Scene
makeScene(SceneId id)
{
    switch (id) {
      case SceneId::LivingRoom:
        return livingRoomScene();
      case SceneId::Office:
        return officeScene();
    }
    support::panic("makeScene: unknown scene id");
}

namespace {

/** fatal() on a spec that cannot render, before any work starts. */
void
validateSpec(const SequenceSpec &spec)
{
    const auto reject = [&spec](const std::string &problem) {
        support::fatal("generateSequence '" + spec.name + "': " + problem);
    };
    if (spec.width == 0 || spec.height == 0)
        reject("image size must be at least 1x1");
    if (spec.numFrames == 0)
        reject("numFrames must be at least 1");
    if (!std::isfinite(spec.fps) || spec.fps <= 0.0)
        reject("fps must be finite and > 0");
    if (!std::isfinite(spec.trajectorySpeedup) ||
        spec.trajectorySpeedup <= 0.0)
        reject("trajectorySpeedup must be finite and > 0");
    if (!(spec.hfovRad > 0.0f &&
          static_cast<double>(spec.hfovRad) < M_PI))
        reject("hfovRad must lie in (0, pi)");
}

} // namespace

Sequence
generateSequence(const SequenceSpec &spec)
{
    validateSpec(spec);
    const uint64_t start_ns = slambench::metrics::now_ns();

    Sequence seq;
    seq.spec = spec;
    seq.intrinsics = math::CameraIntrinsics::fromFov(
        spec.width, spec.height, spec.hfovRad);

    const Scene scene = makeScene(spec.scene);
    TrajectorySpec traj_spec = presetSpec(spec.trajectory);
    traj_spec.durationSeconds /= spec.trajectorySpeedup;
    seq.groundTruth =
        Trajectory::fromSpline(traj_spec, spec.numFrames, spec.fps);

    // Frames render one after another (each one's rows in parallel),
    // so the sensor noise draws from this one stream in frame order.
    support::Rng rng(spec.seed);
    RenderOptions render_options;
    render_options.shadeRgb = spec.renderRgb;

    seq.frames.reserve(spec.numFrames);
    for (size_t i = 0; i < spec.numFrames; ++i) {
        const RenderResult rendered = renderFrame(
            scene, seq.intrinsics, seq.groundTruth.pose(i),
            render_options);

        Frame frame;
        frame.timestamp = seq.groundTruth.timestamp(i);
        if (spec.sensorNoise) {
            frame.depthMm = applySensorModel(
                rendered.depth, rendered.cosIncidence, spec.noise, rng);
        } else {
            frame.depthMm =
                depthToMillimeters(rendered.depth, spec.noise.maxRange);
        }
        if (spec.renderRgb)
            frame.rgb = rendered.rgb;
        seq.frames.push_back(std::move(frame));
    }
    const double seconds =
        static_cast<double>(slambench::metrics::now_ns() - start_ns) *
        1e-9;
    support::metrics::Registry::instance()
        .histogram("dataset.synth_seconds")
        .record(seconds);
    return seq;
}

} // namespace slambench::dataset
