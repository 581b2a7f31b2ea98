/**
 * @file
 * KERNELS — google-benchmark microbenchmarks of every pipeline
 * stage, the per-kernel timing breakdown SLAMBench's GUI side panel
 * reports (and the basis of the device-model calibration).
 *
 * Beyond the console table, `--metrics-json FILE` writes a versioned
 * "slambench-kernel-bench" report with per-kernel ns/item (ns per
 * voxel visit, per ray, per gradient evaluation...) and effective
 * GB/s, which scripts/bench_compare.py gates against a checked-in
 * baseline (BENCH_kernels.json). The optimized integrate/raycast
 * kernels are benchmarked side by side with their dense/reference
 * twins (integrateDense, gradReference) so the culling and fusion
 * wins stay measured, not assumed.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "kfusion/backend.hpp"
#include "kfusion/kernels.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/sparse_volume.hpp"
#include "kfusion/tracking.hpp"
#include "kfusion/volume.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/options.hpp"
#include "support/pmu.hpp"
#include "support/telemetry_server.hpp"

namespace {

using namespace slambench;
using namespace slambench::kfusion;
using support::Image;

/** One rendered frame shared by all microbenches. */
struct Workload
{
    dataset::Sequence sequence;
    math::CameraIntrinsics k;
    Image<float> depth;
    Image<math::Vec3f> vertex, normal;
    Image<math::Vec3f> refVertex, refNormal;
    math::Mat4f pose;

    explicit Workload(size_t w, size_t h)
    {
        dataset::SequenceSpec spec;
        spec.width = w;
        spec.height = h;
        spec.numFrames = 1;
        spec.renderRgb = false;
        sequence = generateSequence(spec);
        k = sequence.intrinsics;
        pose = sequence.groundTruth.pose(0);
        mm2metersKernel(depth, sequence.frames[0].depthMm, 1,
                        nullptr);
        depth2vertexKernel(vertex, depth, k, nullptr);
        vertex2normalKernel(normal, vertex, nullptr);
        refVertex.resize(w, h);
        refNormal.resize(w, h);
        for (size_t i = 0; i < vertex.size(); ++i) {
            if (vertex[i].squaredNorm() == 0.0f)
                continue;
            refVertex[i] = pose.transformPoint(vertex[i]);
            refNormal[i] = pose.transformDir(normal[i]);
        }
    }
};

Workload &
workload(size_t w, size_t h)
{
    static Workload w320(320, 240);
    static Workload w160(160, 120);
    static Workload w80(80, 60);
    if (w == 320 && h == 240)
        return w320;
    if (w == 160 && h == 120)
        return w160;
    return w80;
}

/** The integrate benches' ICL-NUIM-style volume placement. */
TsdfVolume
benchVolume(int res)
{
    return TsdfVolume(res, 4.8f, {-2.4f, -0.4f, -2.4f});
}

/**
 * Samples the PMU thread counters around a whole benchmark body and
 * exports the deltas as "pmu_<counter>" user counters, divided by
 * iterations at report time (kAvgIterations) so the report writer
 * gets per-iteration cycles/instructions/... without span machinery.
 * Inert (no counters exported) unless `--pmu` armed profiling. The
 * bench kernels run serially (nullptr pool), so the bench thread's
 * counter group observes all the work.
 */
class BenchPmuSampler
{
  public:
    explicit BenchPmuSampler(benchmark::State &state) : state_(state)
    {
        active_ =
            support::pmu::Profiler::instance().readThreadSample(
                begin_);
    }

    BenchPmuSampler(const BenchPmuSampler &) = delete;
    BenchPmuSampler &operator=(const BenchPmuSampler &) = delete;

    ~BenchPmuSampler()
    {
        if (!active_)
            return;
        support::pmu::Sample end;
        if (!support::pmu::Profiler::instance().readThreadSample(
                end))
            return;
        const support::pmu::Sample delta =
            support::pmu::sampleDelta(end, begin_);
        for (size_t i = 0; i < support::pmu::kNumCounters; ++i) {
            const auto id = static_cast<support::pmu::CounterId>(i);
            if (!delta.valid(id))
                continue;
            state_.counters[std::string("pmu_") +
                            support::pmu::counterName(id)] =
                benchmark::Counter(
                    delta.get(id),
                    benchmark::Counter::kAvgIterations);
        }
    }

  private:
    benchmark::State &state_;
    support::pmu::Sample begin_;
    bool active_ = false;
};

void
BM_Mm2Meters(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<float> out;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        mm2metersKernel(out, wl.sequence.frames[0].depthMm, 1,
                        nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(out.size()));
}

void
BM_BilateralFilter(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<float> out;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        bilateralFilterKernel(out, wl.depth, 2, 4.0f, 0.1f, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(out.size()) * 25);
}

void
BM_HalfSample(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<float> out;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        halfSampleRobustKernel(out, wl.depth, 0.3f, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(out.size()));
}

void
BM_Depth2Vertex(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<math::Vec3f> out;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        depth2vertexKernel(out, wl.depth, wl.k, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(out.size()));
}

void
BM_Vertex2Normal(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<math::Vec3f> out;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        vertex2normalKernel(out, wl.vertex, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(out.size()));
}

void
BM_TrackKernel(benchmark::State &state)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<TrackData> track;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        trackKernel(track, wl.vertex, wl.normal, wl.pose,
                    wl.refVertex, wl.refNormal, wl.k, wl.pose, 0.1f,
                    0.8f, nullptr);
        benchmark::DoNotOptimize(track.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(track.size()));
}

void
BM_ReduceKernel(benchmark::State &state, const KernelBackend *backend)
{
    Workload &wl = workload(static_cast<size_t>(state.range(0)),
                            static_cast<size_t>(state.range(1)));
    Image<TrackData> track;
    trackKernel(track, wl.vertex, wl.normal, wl.pose, wl.refVertex,
                wl.refNormal, wl.k, wl.pose, 0.1f, 0.8f, nullptr);
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        const ReductionResult r =
            reduceKernel(track, nullptr, backend);
        benchmark::DoNotOptimize(r.errorSq);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(track.size()));
}

/**
 * Frustum-culled integration. Items are voxels actually visited
 * (taken from WorkCounts), so ns/item is ns per visited voxel;
 * compare the whole-kernel time per iteration against
 * BM_IntegrateDense for the culling speedup.
 */
void
BM_Integrate(benchmark::State &state, const KernelBackend *backend)
{
    Workload &wl = workload(160, 120);
    TsdfVolume volume =
        benchVolume(static_cast<int>(state.range(0)));
    volume.setBackend(backend);
    WorkCounts counts;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f,
                         counts, nullptr);
        benchmark::DoNotOptimize(volume.at(0, 0, 0).tsdf);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(counts.itemsFor(KernelId::Integrate)));
    state.SetBytesProcessed(
        static_cast<int64_t>(counts.bytesFor(KernelId::Integrate)));
}

/** Dense reference integration: every voxel visited, same math. */
void
BM_IntegrateDense(benchmark::State &state)
{
    Workload &wl = workload(160, 120);
    TsdfVolume volume =
        benchVolume(static_cast<int>(state.range(0)));
    WorkCounts counts;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        volume.integrateDense(wl.depth, wl.k, wl.pose, 0.1f, 100.0f,
                              counts, nullptr);
        benchmark::DoNotOptimize(volume.at(0, 0, 0).tsdf);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(counts.itemsFor(KernelId::Integrate)));
    state.SetBytesProcessed(
        static_cast<int64_t>(counts.bytesFor(KernelId::Integrate)));
}

/**
 * Hashed-voxel-block integration, same frame and volume placement as
 * BM_Integrate so the dense and sparse rows compare directly. The
 * resident footprint after fusion is exported as the "volume_bytes"
 * counter (and gated by bench_compare.py --max-volume-bytes-regress).
 */
void
BM_IntegrateSparse(benchmark::State &state,
                   const KernelBackend *backend)
{
    Workload &wl = workload(160, 120);
    SparseTsdfVolume volume(static_cast<int>(state.range(0)), 4.8f,
                            {-2.4f, -0.4f, -2.4f}, 8, 0);
    volume.setBackend(backend);
    WorkCounts counts;
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f,
                         counts, nullptr);
        benchmark::DoNotOptimize(volume.voxelAt(0, 0, 0).tsdf);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(counts.itemsFor(KernelId::Integrate)));
    state.SetBytesProcessed(
        static_cast<int64_t>(counts.bytesFor(KernelId::Integrate)));
    state.counters["volume_bytes"] = benchmark::Counter(
        static_cast<double>(volume.memoryStats().bytes));
}

/** Items are rays cast (one per pixel): ns/item is ns per ray. */
void
BM_Raycast(benchmark::State &state, const KernelBackend *backend)
{
    Workload &wl = workload(160, 120);
    TsdfVolume volume =
        benchVolume(static_cast<int>(state.range(0)));
    WorkCounts counts;
    volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f, counts,
                     nullptr);
    RaycastParams params;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;
    Image<math::Vec3f> vertex, normal;
    counts = WorkCounts{};
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        raycastKernel(vertex, normal, volume, wl.k, wl.pose, params,
                      counts, nullptr, backend);
        benchmark::DoNotOptimize(vertex.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(vertex.size()));
    state.SetBytesProcessed(
        static_cast<int64_t>(counts.bytesFor(KernelId::Raycast)));
}

/**
 * Sparse-volume raycast: per-ray cached block lookups with the
 * empty-space skip over unallocated blocks. The sparse march is
 * always the scalar block-cached sampler (no backend axis), so this
 * is registered once, not per backend.
 */
void
BM_RaycastSparse(benchmark::State &state)
{
    Workload &wl = workload(160, 120);
    SparseTsdfVolume volume(static_cast<int>(state.range(0)), 4.8f,
                            {-2.4f, -0.4f, -2.4f}, 8, 0);
    WorkCounts counts;
    volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f, counts,
                     nullptr);
    RaycastParams params;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;
    Image<math::Vec3f> vertex, normal;
    counts = WorkCounts{};
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        raycastKernel(vertex, normal, volume, wl.k, wl.pose, params,
                      counts, nullptr);
        benchmark::DoNotOptimize(vertex.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(vertex.size()));
    state.SetBytesProcessed(
        static_cast<int64_t>(counts.bytesFor(KernelId::Raycast)));
    state.counters["volume_bytes"] = benchmark::Counter(
        static_cast<double>(volume.memoryStats().bytes));
}

/**
 * Surface hit points for the gradient benches: raycast the fused
 * volume once and keep every pixel that found a surface.
 */
std::vector<math::Vec3f>
gradientPoints(const TsdfVolume &volume, const Workload &wl)
{
    RaycastParams params;
    params.step = volume.voxelSize();
    params.largeStep = 0.075f;
    Image<math::Vec3f> vertex, normal;
    WorkCounts counts;
    raycastKernel(vertex, normal, volume, wl.k, wl.pose, params,
                  counts, nullptr);
    std::vector<math::Vec3f> points;
    points.reserve(vertex.size());
    for (size_t i = 0; i < vertex.size(); ++i)
        if (vertex[i].squaredNorm() > 0.0f)
            points.push_back(vertex[i]);
    return points;
}

/** Fused single-pass gradient; items are gradient evaluations. */
void
BM_Grad(benchmark::State &state, const KernelBackend *backend)
{
    Workload &wl = workload(160, 120);
    TsdfVolume volume =
        benchVolume(static_cast<int>(state.range(0)));
    WorkCounts counts;
    volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f, counts,
                     nullptr);
    const std::vector<math::Vec3f> points =
        gradientPoints(volume, wl);
    math::Vec3f acc{};
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        for (const math::Vec3f &p : points)
            acc += backend->grad(volume, p);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(points.size()));
}

/** Reference 6-call gradient over the same hit points. */
void
BM_GradReference(benchmark::State &state)
{
    Workload &wl = workload(160, 120);
    TsdfVolume volume =
        benchVolume(static_cast<int>(state.range(0)));
    WorkCounts counts;
    volume.integrate(wl.depth, wl.k, wl.pose, 0.1f, 100.0f, counts,
                     nullptr);
    const std::vector<math::Vec3f> points =
        gradientPoints(volume, wl);
    math::Vec3f acc{};
    BenchPmuSampler pmu_sampler(state);
    for (auto _ : state) {
        for (const math::Vec3f &p : points)
            acc += volume.gradReference(p);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(points.size()));
}

// --- kernel-bench report ------------------------------------------

/** One measured (non-aggregate) benchmark run. */
struct KernelResult
{
    std::string name;
    /** Kernel backend of a "BM_Foo@backend" row; empty otherwise. */
    std::string backend;
    /** Volume backend the bench fused against ("dense"/"sparse"). */
    std::string volume = "dense";
    int64_t iterations = 0;
    double realNsPerIter = 0.0;
    double cpuNsPerIter = 0.0;
    bool hasItems = false;
    double itemsPerSecond = 0.0;
    bool hasBytes = false;
    double bytesPerSecond = 0.0;
    /** Resident volume footprint ("volume_bytes" user counter);
     *  exported by the sparse benches only. */
    bool hasVolumeBytes = false;
    double volumeBytes = 0.0;
    /** Per-iteration hardware-counter sample ("pmu_*" counters),
     *  all-invalid when --pmu is off or the backend delivered
     *  nothing. */
    support::pmu::Sample pmu;
};

/**
 * Console reporter that additionally captures every iteration run
 * for the --metrics-json report (benchmark 1.x offers no hook to
 * read results back from RunSpecifiedBenchmarks).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<KernelResult> results;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            KernelResult r;
            r.name = run.benchmark_name();
            // Per-backend benches are registered as
            // "BM_Foo@backend/arg": split the backend out so the
            // report keys rows by (name, backend), keeping the name
            // comparable across backends.
            const size_t at = r.name.find('@');
            if (at != std::string::npos) {
                const size_t slash = r.name.find('/', at);
                const size_t backend_end = slash == std::string::npos
                                               ? r.name.size()
                                               : slash;
                r.backend =
                    r.name.substr(at + 1, backend_end - at - 1);
                r.name = r.name.substr(0, at) +
                         r.name.substr(backend_end);
            }
            // The sparse benches are distinct registrations (the
            // sparse data structure changes what "the kernel" is),
            // so the volume axis is recovered from the name.
            if (r.name.find("Sparse") != std::string::npos)
                r.volume = "sparse";
            r.iterations = run.iterations;
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            r.realNsPerIter = run.real_accumulated_time * 1e9 / iters;
            r.cpuNsPerIter = run.cpu_accumulated_time * 1e9 / iters;
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end()) {
                r.hasItems = true;
                r.itemsPerSecond =
                    static_cast<double>(items->second);
            }
            const auto bytes = run.counters.find("bytes_per_second");
            if (bytes != run.counters.end()) {
                r.hasBytes = true;
                r.bytesPerSecond =
                    static_cast<double>(bytes->second);
            }
            const auto volume_bytes =
                run.counters.find("volume_bytes");
            if (volume_bytes != run.counters.end()) {
                r.hasVolumeBytes = true;
                r.volumeBytes =
                    static_cast<double>(volume_bytes->second);
            }
            // "pmu_<counter>" user counters exported by
            // BenchPmuSampler (per-iteration, kAvgIterations).
            for (size_t i = 0; i < support::pmu::kNumCounters;
                 ++i) {
                const auto id =
                    static_cast<support::pmu::CounterId>(i);
                const auto counter = run.counters.find(
                    std::string("pmu_") +
                    support::pmu::counterName(id));
                if (counter != run.counters.end())
                    r.pmu.set(id, static_cast<double>(
                                      counter->second));
            }
            results.push_back(std::move(r));
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

/**
 * Append one row's optional "pmu" JSON block: the per-iteration raw
 * counters that are valid, the derived metrics, and — in roofline
 * mode, for rows with known memory traffic — the device-model
 * bandwidth term and the measured fraction of it. Emitted for every
 * row whenever --pmu armed profiling (possibly with no counters on
 * the null backend), so row shape is stable per run.
 */
void
writePmuBlock(std::ostream &os, const KernelResult &r,
              double roofline_bandwidth)
{
    os << ", \"pmu\": {";
    bool first = true;
    for (size_t i = 0; i < support::pmu::kNumCounters; ++i) {
        const auto id = static_cast<support::pmu::CounterId>(i);
        if (!r.pmu.valid(id))
            continue;
        os << (first ? "" : ", ") << "\""
           << support::pmu::counterName(id)
           << "\": " << jsonNumber(r.pmu.get(id));
        first = false;
    }
    // Known memory traffic per iteration, back-computed from the
    // bytes_per_second google-benchmark derived from
    // SetBytesProcessed; feeds the measured-bytes/s derivation
    // (bytes / task-clock) and the roofline check.
    const double bytes_per_iter =
        r.hasBytes && r.bytesPerSecond > 0.0
            ? r.bytesPerSecond * r.realNsPerIter * 1e-9
            : 0.0;
    const support::pmu::DerivedMetrics derived =
        support::pmu::deriveMetrics(r.pmu, bytes_per_iter);
    if (derived.hasIpc)
        os << (first ? "" : ", ")
           << "\"ipc\": " << jsonNumber(derived.ipc), first = false;
    if (derived.hasLlcMissRate)
        os << (first ? "" : ", ") << "\"llc_miss_rate\": "
           << jsonNumber(derived.llcMissRate),
            first = false;
    if (derived.hasBranchMissRate)
        os << (first ? "" : ", ") << "\"branch_miss_rate\": "
           << jsonNumber(derived.branchMissRate),
            first = false;
    if (derived.hasTaskClock)
        os << (first ? "" : ", ") << "\"task_clock_seconds\": "
           << jsonNumber(derived.taskClockSeconds),
            first = false;
    if (derived.hasBytesPerSecond) {
        os << (first ? "" : ", ") << "\"bytes_per_second\": "
           << jsonNumber(derived.bytesPerSecond);
        first = false;
        if (roofline_bandwidth > 0.0) {
            os << ", \"roofline_bytes_per_second\": "
               << jsonNumber(roofline_bandwidth);
            os << ", \"roofline_fraction\": "
               << jsonNumber(derived.bytesPerSecond /
                             roofline_bandwidth);
        }
    }
    os << "}";
}

/**
 * Write the versioned kernel-bench report consumed by
 * scripts/bench_compare.py and validated by
 * scripts/check_kernel_bench_schema.py. @p roofline_bandwidth > 0
 * adds roofline fields to pmu blocks with measured bytes/s.
 */
bool
writeKernelReport(const std::string &path,
                  const std::vector<KernelResult> &results,
                  double roofline_bandwidth)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr,
                     "bench_kernels: cannot write %s\n",
                     path.c_str());
        return false;
    }
    os << "{\n";
    os << "  \"schema\": \"slambench-kernel-bench\",\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"generator\": \"bench_kernels\",\n";
    os << "  \"git_describe\": \""
       << jsonEscape(support::metrics::gitDescribe()) << "\",\n";
    os << "  \"build_type\": \""
       << jsonEscape(support::metrics::buildType()) << "\",\n";
    os << "  \"kernels\": [";
    for (size_t i = 0; i < results.size(); ++i) {
        const KernelResult &r = results[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"name\": \"" << jsonEscape(r.name) << "\", ";
        if (!r.backend.empty())
            os << "\"backend\": \"" << jsonEscape(r.backend)
               << "\", ";
        os << "\"volume\": \"" << jsonEscape(r.volume) << "\", ";
        os << "\"iterations\": " << r.iterations << ", ";
        os << "\"real_ns_per_iter\": " << jsonNumber(r.realNsPerIter)
           << ", ";
        os << "\"cpu_ns_per_iter\": " << jsonNumber(r.cpuNsPerIter);
        if (r.hasItems && r.itemsPerSecond > 0.0) {
            os << ", \"items_per_second\": "
               << jsonNumber(r.itemsPerSecond);
            os << ", \"ns_per_item\": "
               << jsonNumber(1e9 / r.itemsPerSecond);
        }
        if (r.hasBytes && r.bytesPerSecond > 0.0) {
            os << ", \"bytes_per_second\": "
               << jsonNumber(r.bytesPerSecond);
            os << ", \"gb_per_s\": "
               << jsonNumber(r.bytesPerSecond / 1e9);
        }
        if (r.hasVolumeBytes)
            os << ", \"volume_bytes\": "
               << jsonNumber(r.volumeBytes);
        if (support::pmu::profilingActive())
            writePmuBlock(os, r, roofline_bandwidth);
        os << "}";
    }
    os << (results.empty() ? "],\n" : "\n  ],\n");
    os << "  \"kernel_count\": " << results.size() << "\n";
    os << "}\n";
    return os.good();
}

/**
 * Register the backend-parameterized hot-kernel benches as
 * "BM_<name>@<backend>" rows, one set per requested backend (the
 * report writer splits the "@backend" suffix into a "backend"
 * field). The preprocessing benches have no backend axis and stay
 * statically registered.
 */
void
registerBackendBenches(const std::vector<std::string> &backends)
{
    for (const std::string &name : backends) {
        const KernelBackend *backend = findKernelBackend(name);
        benchmark::RegisterBenchmark(
            ("BM_ReduceKernel@" + name).c_str(), BM_ReduceKernel,
            backend)
            ->Args({320, 240})
            ->Args({160, 120});
        benchmark::RegisterBenchmark(
            ("BM_Integrate@" + name).c_str(), BM_Integrate, backend)
            ->Arg(64)
            ->Arg(128)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_IntegrateSparse@" + name).c_str(),
            BM_IntegrateSparse, backend)
            ->Arg(64)
            ->Arg(128)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_Raycast@" + name).c_str(), BM_Raycast, backend)
            ->Arg(64)
            ->Arg(128)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_Grad@" + name).c_str(), BM_Grad, backend)
            ->Arg(128)
            ->Arg(256);
    }
}

} // namespace

BENCHMARK(BM_Mm2Meters)->Args({320, 240})->Args({160, 120});
BENCHMARK(BM_BilateralFilter)
    ->Args({320, 240})
    ->Args({160, 120})
    ->Args({80, 60});
BENCHMARK(BM_HalfSample)->Args({320, 240})->Args({160, 120});
BENCHMARK(BM_Depth2Vertex)->Args({320, 240})->Args({160, 120});
BENCHMARK(BM_Vertex2Normal)->Args({320, 240})->Args({160, 120});
BENCHMARK(BM_TrackKernel)
    ->Args({320, 240})
    ->Args({160, 120})
    ->Args({80, 60});
BENCHMARK(BM_IntegrateDense)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_RaycastSparse)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_GradReference)->Arg(128)->Arg(256);

/**
 * Custom main: the repository's own flags come from an option table,
 * and only arguments starting with --benchmark_ reach google-benchmark.
 */
int
main(int argc, char **argv)
{
    using slambench::support::OptionType;
    slambench::support::Options options(
        "bench_kernels", "google-benchmark microbenches of the kernels");
    std::string backends;
    for (const std::string &name :
         slambench::kfusion::kernelBackendNames())
        backends += name + "|";
    options.section("kernel benches").add({
        {"--metrics-json", OptionType::String, "", "",
         "kernel bench report (JSON)"},
        {"--backend", OptionType::String, "", backends + "auto",
         "run the hot-kernel rows on this backend only (default: "
         "every backend)"},
        {"--pmu", OptionType::Flag, "", "",
         "hardware-counter profiling of every row"},
        {"--roofline", OptionType::Flag, "", "",
         "compare measured bytes/s with the device model (implies "
         "--pmu)"},
        {"--telemetry-port", OptionType::Integer, "", "0..65535",
         "serve /metrics, /healthz, /runz on 127.0.0.1:N "
         "(0 = ephemeral)"},
        {"--crash-dump", OptionType::String, "", "",
         "fatal-signal flight-recorder dump (JSON)"},
    });
    options.passThrough("--benchmark_");
    options.parseOrExit(argc, argv);

    const std::string &metrics_path = options.string("--metrics-json");
    // Roofline validation needs the measured bytes/s, so --roofline
    // implies --pmu.
    const bool roofline_flag = options.flag("--roofline");
    slambench::support::telemetry::TelemetryOptions telemetry_opts;
    telemetry_opts.generator = "kernels";
    if (options.given("--telemetry-port"))
        telemetry_opts.port =
            static_cast<int>(options.integer("--telemetry-port"));
    telemetry_opts.crashDumpPath = options.string("--crash-dump");
    const slambench::support::telemetry::TelemetryEndpoint telemetry(
        telemetry_opts);
    const slambench::support::pmu::Session pmu_session(
        options.flag("--pmu") || roofline_flag);

    // --backend NAME restricts the hot-kernel benches to one backend
    // ("auto" resolves via CPUID); by default every registered
    // backend gets its own rows so BENCH_kernels.json gates each.
    std::vector<std::string> bench_backends;
    if (!options.given("--backend")) {
        bench_backends = slambench::kfusion::kernelBackendNames();
    } else {
        std::string backend_error;
        const slambench::kfusion::KernelBackend *resolved =
            slambench::kfusion::resolveKernelBackend(
                options.string("--backend"), &backend_error);
        if (!resolved)
            options.fail("--backend: " + backend_error);
        bench_backends = {resolved->name()};
    }
    registerBackendBenches(bench_backends);
    std::vector<std::string> bench_args = options.passedThrough();
    std::vector<char *> bench_argv{argv[0]};
    for (std::string &arg : bench_args)
        bench_argv.push_back(arg.data());
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data()))
        return 2;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Roofline validation: compare each row's measured bytes/s (from
    // the PMU task clock and the kernel's known memory traffic)
    // against the device model's bandwidth term, so the calibrated
    // constants in src/devices/ are checked against machine-measured
    // behaviour instead of trusted.
    const double roofline_bandwidth =
        roofline_flag
            ? slambench::devices::odroidXu3().memoryBandwidth
            : 0.0;
    if (roofline_flag) {
        std::printf("\nROOFLINE: measured bytes/s vs device model "
                    "(odroid-xu3, %.2f GB/s)\n",
                    roofline_bandwidth / 1e9);
        std::printf("%-32s %-8s %12s %10s\n", "kernel", "backend",
                    "meas GB/s", "of roof");
        bool any = false;
        for (const KernelResult &r : reporter.results) {
            const double bytes_per_iter =
                r.hasBytes && r.bytesPerSecond > 0.0
                    ? r.bytesPerSecond * r.realNsPerIter * 1e-9
                    : 0.0;
            const slambench::support::pmu::DerivedMetrics derived =
                slambench::support::pmu::deriveMetrics(
                    r.pmu, bytes_per_iter);
            if (!derived.hasBytesPerSecond)
                continue;
            any = true;
            std::printf("%-32s %-8s %12.2f %9.1f%%\n",
                        r.name.c_str(),
                        r.backend.empty() ? "-" : r.backend.c_str(),
                        derived.bytesPerSecond / 1e9,
                        100.0 * derived.bytesPerSecond /
                            roofline_bandwidth);
        }
        if (!any)
            std::printf("(no rows with measured bytes/s — the PMU "
                        "task clock is unavailable on this host or "
                        "no bench reports bytes)\n");
    }

    if (!metrics_path.empty()) {
        if (!writeKernelReport(metrics_path, reporter.results,
                               roofline_bandwidth))
            return 1;
        slambench::support::logInfo()
            << "kernel bench report -> " << metrics_path;
    }
    return 0;
}
