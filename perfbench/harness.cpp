/**
 * @file
 * perfbench harness: runs one benchmark workload through the library
 * for a fixed wall-clock budget, checks the outputs, and prints one
 * JSON object as its last line of standard output.
 *
 *   perfbench_harness --workload dense|sparse|serve|dse --seed N
 *                     --seconds S --trace 0|1
 *
 * Workloads (inputs are synthesized from --seed, which only seeds the
 * sensor-noise stream, so every seed does the same amount of work):
 *
 *   dense   SLAM frame loop: KinectFusion on a dense TSDF volume, one
 *           frame at a time, kernels split over a kPoolWorkers pool.
 *           Unit = one frame.
 *   sparse  The same frame loop on the hashed voxel-block volume.
 *   serve   The multi-tenant service: tenant sessions scheduled in
 *           ticks over the shared pool. Unit = one tick (a frame from
 *           every tenant).
 *   dse     HyperMapper active-learning exploration of the KinectFusion
 *           design space, evaluating on a kPoolWorkers pool. Unit = one
 *           whole exploration (time to a Pareto front); throughput
 *           counts evaluations.
 *
 * Workload sizes are the repository's default invocations:
 * slambench_cli (dense, sparse), slambench_serve (serve) and
 * dse_exploration (dse).
 *
 * Each run times repeated set-ups (set-up time is their median), then
 * repeats the workload's unit until --seconds have passed. Set-up is
 * what the program does before its first unit: standing up the
 * tenants, which render their own streams (serve); rendering the
 * explored sequence and building the evaluator (dse); building the
 * SLAM system (dense, sparse). The dense and sparse input sequence is
 * synthesized once, outside set-up, as one 40-frame synthesis takes
 * seconds. With --trace 0 the metrics are the end-to-end ones (unit
 * latency p50/p90, throughput, set-up time). With --trace 1 the
 * library's span tracer is switched on for the measured loop and the
 * metrics are per layer: dataset synthesis, per-kernel time, pipeline
 * work counts, pool queueing, load shedding and DSE model time.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config_binding.hpp"
#include "core/experiment.hpp"
#include "core/slam_system.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "hypermapper/drivers.hpp"
#include "kfusion/work_counters.hpp"
#include "metrics/ate.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"
#include "support/telemetry_server.hpp"
#include "support/trace.hpp"

namespace {

using namespace slambench;
using Clock = std::chrono::steady_clock;
using support::metrics::Registry;

/**
 * Seconds of set-up repetitions per run, half before the measured loop
 * and half after its output checks. Set-up is mostly single-threaded,
 * and on a shared host one core's speed drifts for seconds at a time:
 * samples from both ends of the run average that out, where one burst
 * of them inherits it.
 */
constexpr double kSetupSeconds = 4.0;
/** Set-ups per half at least, so a slow set-up still has a median. */
constexpr size_t kMinSetupRepeats = 2;
/**
 * Set-ups per half at most: a set-up of a millisecond would otherwise
 * run thousands of times, and how the heap looks after them would
 * change with set-up cost and shift the measured loop.
 */
constexpr size_t kMaxSetupRepeats = 25;
/** Largest max-ATE a correct SLAM run may show, meters. */
constexpr double kMaxAteMeters = 0.05;
/**
 * Pool workers of every workload. The thread that hands work to the
 * pool runs queued work too while it waits, so the workers and it fill
 * four cores without outnumbering them. Each workload spreads its work
 * over all cores: on a shared host one core's speed drifts by tens of
 * percent from minute to minute, and a single-threaded loop inherits
 * that drift while a pooled one averages it out.
 */
constexpr size_t kPoolWorkers = 3;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

bool
samePose(const math::Mat4f &a, const math::Mat4f &b)
{
    return std::memcmp(&a, &b, sizeof(math::Mat4f)) == 0;
}

/** Everything one workload run measured. */
struct Run
{
    std::vector<double> setupSeconds; ///< One per set-up repetition.
    std::vector<double> synthSeconds; ///< One per sequence synthesis.
    size_t synthFrames = 0;           ///< Frames per synthesis.

    std::vector<double> unitSeconds;  ///< Latency of every unit.
    double loopSeconds = 0.0;         ///< Wall time of the loop.
    double completed = 0.0; ///< Frames (slam, serve) or evaluations.
    uint64_t attempted = 0;
    uint64_t failed = 0;

    std::vector<std::string> errors; ///< Failed output checks.

    /** Registry and tracer readings taken when the loop ended. */
    std::map<std::string, double> layer;
    // Layer-specific readings (0 where the layer is not exercised).
    double shedFrames = 0.0;
    double dseInvalid = 0.0;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }

    /**
     * Time @p set_up (one whole set-up) kMinSetupRepeats times and on
     * until half of kSetupSeconds has passed, at most kMaxSetupRepeats
     * times. @p tear_down, untimed, drops the previous set-up's objects
     * first.
     */
    template <typename TearDown, typename SetUp>
    void
    timeSetUps(const TearDown &tear_down, const SetUp &set_up)
    {
        const auto began = Clock::now();
        for (size_t r = 0;
             r < kMinSetupRepeats ||
             (r < kMaxSetupRepeats &&
              secondsBetween(began, Clock::now()) < kSetupSeconds / 2);
             ++r) {
            tear_down();
            const auto t0 = Clock::now();
            set_up();
            setupSeconds.push_back(secondsBetween(t0, Clock::now()));
        }
    }
};

/**
 * Zero the registry and arm the span tracer (when @p trace) for the
 * measured loop; set-up stays outside both.
 */
void
beginLoop(bool trace)
{
    Registry::instance().resetValues();
    auto &tracer = support::trace::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(trace);
}

/**
 * Disarm the tracer and keep the loop's per-layer readings, before the
 * output checks run more frames through the library.
 */
void
endLoop(Run &run)
{
    auto &tracer = support::trace::Tracer::instance();
    tracer.setEnabled(false);
    for (const auto &k : tracer.kernelTotals())
        run.layer["kernel." + k.name] += k.seconds;
    auto &registry = Registry::instance();
    for (const char *name :
         {"pipeline.frames", "pipeline.tracking_failures",
          "raycast.steps", "volume.integrate.visited"})
        run.layer[name] =
            static_cast<double>(registry.counter(name).value());
    run.layer["pipeline.frame_seconds"] =
        registry.histogram("pipeline.frame_seconds").mean();
    run.layer["pool.queue_wait_ms"] =
        registry.histogram("pool.task.queue_wait_ms").sum();
    run.layer["pool.run_ms"] =
        registry.histogram("pool.task.run_ms").sum();
    run.layer["dse.batch_wall_seconds"] =
        registry.histogram("dse.batch_wall_seconds").sum();
}

// --- SLAM frame loop (dense, sparse) ------------------------------

/** Bit-exact parity frames replayed on the scalar dense reference. */
constexpr size_t kParityFrames = 4;

void
runSlam(const std::string &volume, uint64_t seed, double seconds,
        bool trace, Run &run)
{
    // slambench_cli's default run: 320x240, 40 frames, vr=256 and the
    // rest of the KFusionConfig defaults.
    dataset::SequenceSpec spec;
    spec.numFrames = 40;
    spec.renderRgb = false;
    spec.seed = seed;
    kfusion::KFusionConfig config;
    config.kernelBackend = "auto";
    config.volumeBackend = volume;
    const auto synth_start = Clock::now();
    const dataset::Sequence sequence = dataset::generateSequence(spec);
    run.synthSeconds.push_back(secondsBetween(synth_start, Clock::now()));
    run.synthFrames = sequence.frames.size();

    std::unique_ptr<core::KFusionSystem> system;
    const auto tear_down = [&] { system.reset(); };
    const auto set_up = [&] {
        system = std::make_unique<core::KFusionSystem>(
            config, kfusion::Implementation::Threaded, kPoolWorkers);
        system->initialize(sequence.intrinsics,
                           sequence.groundTruth.pose(0));
    };
    run.timeSetUps(tear_down, set_up);

    std::vector<math::Mat4f> gt;
    for (size_t i = 0; i < sequence.frames.size(); ++i)
        gt.push_back(sequence.groundTruth.pose(i));

    // Every pass starts a fresh map from the ground-truth pose, so
    // every pass must reproduce the first pass's poses bit for bit.
    std::vector<math::Mat4f> first_pass;
    beginLoop(trace);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(seconds);
    for (size_t pass = 0;; ++pass) {
        if (pass > 0)
            system->initialize(sequence.intrinsics, gt[0]);
        std::vector<math::Mat4f> poses;
        bool out_of_time = false;
        for (const dataset::Frame &frame : sequence.frames) {
            const auto t0 = Clock::now();
            const bool tracked = system->processFrame(frame);
            const auto t1 = Clock::now();
            run.unitSeconds.push_back(secondsBetween(t0, t1));
            ++run.attempted;
            if (!tracked)
                ++run.failed;
            poses.push_back(system->currentPose());
            if (t1 >= deadline) {
                out_of_time = true;
                break;
            }
        }
        if (pass == 0) {
            first_pass = poses;
        } else {
            bool same = true;
            for (size_t i = 0; i < poses.size(); ++i)
                same = same && samePose(poses[i], first_pass[i]);
            run.check(same, "pass " + std::to_string(pass) +
                                " differs from the first pass");
        }
        if (out_of_time)
            break;
    }
    run.loopSeconds = secondsBetween(start, Clock::now());
    endLoop(run);
    run.completed = static_cast<double>(run.attempted);

    const std::vector<math::Mat4f> gt_prefix(
        gt.begin(),
        gt.begin() + static_cast<long>(first_pass.size()));
    const double max_ate =
        metrics::computeAte(first_pass, gt_prefix).maxAte;
    run.check(max_ate <= kMaxAteMeters,
              "max ATE " + std::to_string(max_ate) + " m above " +
                  std::to_string(kMaxAteMeters));

    // Parity contract: every kernel backend and volume backend is
    // bit-exact against the scalar dense reference.
    kfusion::KFusionConfig reference = config;
    reference.kernelBackend = "scalar";
    reference.volumeBackend = "dense";
    {
        core::KFusionSystem oracle(reference);
        oracle.initialize(sequence.intrinsics, gt[0]);
        const size_t n = std::min(kParityFrames, first_pass.size());
        for (size_t i = 0; i < n; ++i) {
            oracle.processFrame(sequence.frames[i]);
            run.check(samePose(oracle.currentPose(), first_pass[i]),
                      "frame " + std::to_string(i) +
                          " differs from the scalar dense reference");
        }
    }
    run.timeSetUps(tear_down, set_up);
}

// --- Serve fleet ---------------------------------------------------

constexpr size_t kServeTenants = 8;

std::vector<std::unique_ptr<serve::TenantSession>>
makeTenants(uint64_t seed)
{
    static const dataset::TrajectoryPreset kPresets[] = {
        dataset::TrajectoryPreset::OrbitA,
        dataset::TrajectoryPreset::SweepB,
        dataset::TrajectoryPreset::CloseupC,
    };
    const auto fleet = devices::mobileFleet(kServeTenants, 2018);
    std::vector<std::unique_ptr<serve::TenantSession>> sessions;
    for (size_t i = 0; i < kServeTenants; ++i) {
        serve::TenantConfig tenant;
        tenant.id = "t" + std::to_string(i);
        tenant.device = fleet[i % fleet.size()];
        tenant.kfusion.volumeResolution = 64;
        tenant.kfusion.computeSizeRatio = 2;
        tenant.kfusion.kernelBackend = "auto";
        tenant.sequence.width = 160;
        tenant.sequence.height = 120;
        tenant.sequence.numFrames = 16;
        tenant.sequence.renderRgb = false;
        tenant.sequence.trajectory = kPresets[i % 3];
        tenant.sequence.seed = seed * kServeTenants + i;
        tenant.sequence.name = tenant.id;
        sessions.push_back(
            std::make_unique<serve::TenantSession>(tenant));
    }
    return sessions;
}

void
runServe(uint64_t seed, double seconds, bool trace, Run &run)
{
    serve::SchedulerOptions options;
    options.threads = kPoolWorkers;
    std::unique_ptr<serve::StreamScheduler> scheduler;
    const auto tear_down = [&] { scheduler.reset(); };
    const auto set_up = [&] {
        const auto t0 = Clock::now();
        auto sessions = makeTenants(seed);
        run.synthSeconds.push_back(secondsBetween(t0, Clock::now()));
        scheduler = std::make_unique<serve::StreamScheduler>(
            std::move(sessions), options);
    };
    run.timeSetUps(tear_down, set_up);
    run.synthFrames =
        kServeTenants * scheduler->sessions().front()->streamLength();

    // Each tenant's ATE gauge holds its latest frame's error; the
    // check takes the worst reading over every tick.
    std::vector<const support::metrics::Gauge *> ate_gauges;
    for (const auto &tenant : scheduler->sessions())
        ate_gauges.push_back(&Registry::instance().gauge(
            support::telemetry::labeledMetricName(
                "serve.tenant.last_ate_m", "tenant", tenant->id())));
    std::vector<double> max_ate(ate_gauges.size(), 0.0);

    beginLoop(trace);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(seconds);
    uint64_t ticks = 0;
    while (Clock::now() < deadline) {
        const auto t0 = Clock::now();
        const serve::TickReport tick = scheduler->runTick();
        run.unitSeconds.push_back(secondsBetween(t0, Clock::now()));
        ++ticks;
        run.completed += static_cast<double>(tick.framesProcessed);
        run.shedFrames += static_cast<double>(tick.framesShed);
        for (size_t i = 0; i < ate_gauges.size(); ++i)
            max_ate[i] = std::max(max_ate[i], ate_gauges[i]->value());
    }
    run.loopSeconds = secondsBetween(start, Clock::now());
    endLoop(run);

    const uint64_t lost = static_cast<uint64_t>(
        run.layer["pipeline.tracking_failures"]);
    run.attempted = ticks * kServeTenants;
    run.failed = static_cast<uint64_t>(run.shedFrames) + lost;

    uint64_t processed = 0;
    for (size_t i = 0; i < scheduler->sessions().size(); ++i) {
        const auto &tenant = scheduler->sessions()[i];
        processed += tenant->framesProcessed();
        run.check(max_ate[i] <= kMaxAteMeters,
                  "tenant " + tenant->id() + " max ATE " +
                      std::to_string(max_ate[i]) + " m");
    }
    run.check(processed == scheduler->framesProcessed() &&
                  processed + scheduler->framesShed() == run.attempted,
              "frames processed + shed != ticks x tenants");
    run.check(lost == 0, std::to_string(lost) + " tracking failures");
    run.timeSetUps(tear_down, set_up);
}

// --- HyperMapper DSE -----------------------------------------------

hypermapper::ActiveLearningOptions
dseOptions()
{
    // dse_exploration's default run: a budget of 24 evaluations, half
    // of them warm-up.
    hypermapper::ActiveLearningOptions options;
    options.warmupSamples = 12;
    options.iterations = 2;
    options.batchSize = 6;
    options.candidatePool = 500;
    options.forest.numTrees = 15;
    options.seed = 7;
    options.threads = kPoolWorkers;
    return options;
}

void
runDse(uint64_t seed, double seconds, bool trace, Run &run)
{
    // The explored sequence is dse_exploration's (160x120, 12 frames,
    // its fixed noise seed): the configurations active learning picks
    // depend on the measured objectives, so a seeded input would
    // change which (and how costly) configurations every run
    // evaluates. The seed drives the held-out check below.
    dataset::SequenceSpec spec;
    spec.width = 160;
    spec.height = 120;
    spec.numFrames = 12;
    spec.renderRgb = false;
    const auto space = core::kfusionParameterSpace();
    const auto device = devices::odroidXu3();

    dataset::Sequence sequence;
    hypermapper::Evaluator evaluator;
    const auto tear_down = [&] {
        evaluator = nullptr;
        sequence = {};
    };
    const auto set_up = [&] {
        const auto t0 = Clock::now();
        sequence = dataset::generateSequence(spec);
        run.synthSeconds.push_back(secondsBetween(t0, Clock::now()));
        evaluator = core::makeDseEvaluator(space, sequence, device);
    };
    run.timeSetUps(tear_down, set_up);
    run.synthFrames = sequence.frames.size();

    const auto options = dseOptions();
    std::vector<hypermapper::Evaluation> first;
    beginLoop(trace);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(seconds);
    for (size_t round = 0; Clock::now() < deadline; ++round) {
        const auto t0 = Clock::now();
        const auto result = hypermapper::activeLearning(
            space, evaluator, core::kNumObjectives, options);
        run.unitSeconds.push_back(secondsBetween(t0, Clock::now()));
        for (const auto &e : result.evaluations) {
            ++run.attempted;
            bool finite = true;
            for (double o : e.objectives)
                finite = finite && std::isfinite(o);
            if (!finite)
                ++run.failed;
            if (!e.valid)
                run.dseInvalid += 1.0;
        }
        if (round == 0) {
            first = result.evaluations;
            run.check(!hypermapper::paretoFront(first).empty(),
                      "empty Pareto front");
            continue;
        }
        bool same = first.size() == result.evaluations.size();
        for (size_t i = 0; same && i < first.size(); ++i)
            same = first[i].point == result.evaluations[i].point &&
                   first[i].objectives ==
                       result.evaluations[i].objectives &&
                   first[i].valid == result.evaluations[i].valid;
        run.check(same, "exploration " + std::to_string(round) +
                            " differs from the first");
    }
    run.loopSeconds = secondsBetween(start, Clock::now());
    endLoop(run);
    run.completed = static_cast<double>(run.attempted);

    // The paper's default configuration must stay valid and accurate
    // on a take of the same trajectory with seeded noise.
    dataset::SequenceSpec held_out = spec;
    held_out.seed = seed;
    const auto reference = core::evaluateConfigOnDevice(
        core::pointToConfig(space, space.defaultPoint()),
        dataset::generateSequence(held_out), device);
    run.check(reference.valid && reference.ate.maxAte <= kMaxAteMeters,
              "default configuration invalid or inaccurate (max ATE " +
                  std::to_string(reference.ate.maxAte) + " m)");
    run.timeSetUps(tear_down, set_up);
}

// --- Output --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Run &run, const std::vector<Metric> &metrics)
{
    for (const std::string &e : run.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                run.errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

std::vector<Metric>
endToEnd(const Run &run)
{
    return {
        {"latency_p50_ms",
         support::percentile(run.unitSeconds, 50.0) * 1e3, "ms"},
        {"latency_p90_ms",
         support::percentile(run.unitSeconds, 90.0) * 1e3, "ms"},
        {"throughput_per_s", run.completed / run.loopSeconds, "1/s"},
        {"setup_s", support::percentile(run.setupSeconds, 50.0), "s"},
    };
}

std::vector<Metric>
perLayer(const Run &run)
{
    // Readings are per frame through the pipeline across the loop.
    const auto reading = [&run](const std::string &key) {
        const auto it = run.layer.find(key);
        return it == run.layer.end() ? 0.0 : it->second;
    };
    const double frames = std::max(1.0, reading("pipeline.frames"));
    std::vector<Metric> out;
    out.push_back({"synth_ms_per_frame",
                   support::percentile(run.synthSeconds, 50.0) * 1e3 /
                       static_cast<double>(run.synthFrames),
                   "ms"});
    for (size_t i = 0; i < kfusion::kNumKernels; ++i) {
        const std::string name =
            kfusion::kernelName(static_cast<kfusion::KernelId>(i));
        out.push_back({"kernel_" + name + "_ms",
                       reading("kernel." + name) * 1e3 / frames, "ms"});
    }
    out.push_back({"frame_ms",
                   reading("pipeline.frame_seconds") * 1e3, "ms"});
    out.push_back({"pipeline_frames", frames, "count"});
    out.push_back({"tracking_failures",
                   reading("pipeline.tracking_failures"), "count"});
    out.push_back({"raycast_steps_per_frame",
                   reading("raycast.steps") / frames, "count"});
    out.push_back({"integrate_voxels_per_frame",
                   reading("volume.integrate.visited") / frames,
                   "count"});
    const double wait_ms = reading("pool.queue_wait_ms");
    const double pool_ms = wait_ms + reading("pool.run_ms");
    out.push_back({"pool_queue_wait_pct",
                   pool_ms > 0.0 ? 100.0 * wait_ms / pool_ms : 0.0,
                   "%"});
    out.push_back({"shed_frames", run.shedFrames, "count"});
    // Exploration time outside the evaluation batches: model fits and
    // candidate scoring.
    const double batches = reading("dse.batch_wall_seconds");
    out.push_back({"dse_model_pct",
                   batches > 0.0
                       ? 100.0 * (1.0 - batches / run.loopSeconds)
                       : 0.0,
                   "%"});
    out.push_back({"dse_invalid_evals", run.dseInvalid, "count"});
    return out;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            continue;
        }
        if (flag == "--seed")
            args.seed = std::strtoull(value, &end, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, &end);
        else if (flag == "--trace")
            args.trace = std::strtol(value, &end, 10) != 0;
        else
            return false;
        if (end == value || *end != '\0')
            return false;
    }
    return argc % 2 == 1 && args.seconds > 0.0 &&
           (args.workload == "dense" || args.workload == "sparse" ||
            args.workload == "serve" || args.workload == "dse");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_harness --workload "
                     "dense|sparse|serve|dse --seed N --seconds S "
                     "--trace 0|1\n");
        return 2;
    }
    support::setLogLevel(support::LogLevel::Warn);

    Run run;
    if (args.workload == "serve")
        runServe(args.seed, args.seconds, args.trace, run);
    else if (args.workload == "dse")
        runDse(args.seed, args.seconds, args.trace, run);
    else
        runSlam(args.workload, args.seed, args.seconds, args.trace,
                run);

    printResult(run, args.trace ? perLayer(run) : endToEnd(run));
    return 0;
}
