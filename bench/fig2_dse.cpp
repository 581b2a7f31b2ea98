/**
 * @file
 * FIG2 — reproduces the paper's Fig. 2: design-space exploration of
 * the KinectFusion algorithmic parameters on the (simulated)
 * Odroid-XU3.
 *
 * Left pane: runtime-vs-MaxATE scatter comparing random sampling
 * against HyperMapper-style active learning at equal budget, with
 * the default configuration and the 0.05 m accuracy limit marked.
 * Right pane: the decision-tree "knowledge" separating good
 * configurations (accurate + real-time + power-efficient) from bad
 * ones, printed as parameter rules.
 *
 * Output: fig2_scatter.csv (one row per evaluation), plus the
 * induced rules and a summary on stdout.
 *
 * Options: see --help (--frames, --random, --warmup, --iters,
 * --batch, --seed, --quick).
 */

#include <cstdio>
#include <fstream>
#include <limits>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "hypermapper/knowledge.hpp"
#include "support/csv.hpp"

namespace {

using namespace slambench;
using namespace slambench::bench;

void
writeRows(support::CsvWriter &csv,
          const std::vector<hypermapper::Evaluation> &evals,
          const hypermapper::ParameterSpace &space)
{
    for (const auto &e : evals) {
        csv.beginRow()
            .cell(e.method)
            .cell(static_cast<int64_t>(e.iteration))
            .cell(e.valid ? "1" : "0")
            .cell(e.objectives[core::kObjRuntime])
            .cell(e.objectives[core::kObjMaxAte])
            .cell(e.objectives[core::kObjWatts]);
        for (size_t i = 0; i < space.size(); ++i)
            csv.cell(e.point[i]);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using support::OptionType;
    support::Options options(
        "bench_fig2_dse",
        "FIG2: random sampling vs active-learning DSE of KinectFusion");
    options.section("exploration").add({
        {"--quick", OptionType::Flag, "", "",
         "tiny budgets for smoke testing (unless given: frames 10, "
         "random 10, warmup 6, iters 1, batch 4)"},
        {"--frames", OptionType::Integer, "30", "1..",
         "frames of the canonical sequence"},
        {"--random", OptionType::Integer, "100", "0..",
         "random-sampling evaluation budget"},
        {"--warmup", OptionType::Integer, "40", "0..",
         "active-learning warm-up samples"},
        {"--iters", OptionType::Integer, "6", "0..",
         "active-learning iterations"},
        {"--batch", OptionType::Integer, "10", "1..",
         "active-learning evaluations per iteration"},
        {"--seed", OptionType::Integer, "1", "0..", "sampling seed"},
    });
    core::addDseThreadsOption(options);
    core::addKernelOptions(options);
    core::addObservabilityOptions(options);
    options.parseOrExit(argc, argv);

    // --backend/--volume select the baseline's kernel and volume
    // backends, which move host time only; the DSE itself explores
    // the modeled "implementation" dimension (0 = reference,
    // 1 = vectorized kernels) and runs every evaluation on the dense
    // map, regardless of these flags.
    kfusion::KFusionConfig default_config = defaultConfig();
    core::applyKernelOptions(options, default_config);
    core::Observability observability(options, "fig2_dse");
    support::metrics::RunSession &metrics_session = observability.metrics;

    // --quick replaces the defaults, not values given explicitly.
    const bool quick = options.flag("--quick");
    auto budget = [&](const char *name, long quick_value) {
        return static_cast<size_t>(quick && !options.given(name)
                                       ? quick_value
                                       : options.integer(name));
    };
    const size_t frames = budget("--frames", 10);
    const size_t random_budget = budget("--random", 10);
    const size_t warmup = budget("--warmup", 6);
    const size_t iterations = budget("--iters", 1);
    const size_t batch = budget("--batch", 4);
    const auto seed = static_cast<uint64_t>(options.integer("--seed"));
    const auto dse_threads =
        static_cast<size_t>(options.integer("--dse-threads"));

    std::printf("FIG2: DSE on the simulated odroid-xu3 "
                "(%zu frames, random=%zu, active=%zu+%zux%zu, "
                "dse-threads=%zu)\n",
                frames, random_budget, warmup, iterations, batch,
                dse_threads);

    dataset::SequenceSpec spec = canonicalWorkload(frames);
    const dataset::Sequence sequence = generateSequence(spec);
    const auto space = core::kfusionParameterSpace();
    const auto xu3 = devices::odroidXu3();
    std::vector<core::EvaluatedConfig> eval_log;
    auto evaluator =
        core::makeDseEvaluator(space, sequence, xu3, {}, &eval_log);

    // --- Baseline: the default configuration. ---
    core::addConfigParams(metrics_session, default_config);
    const hypermapper::Point default_point =
        core::configToPoint(space, default_config);
    const auto default_outcome = evaluator(default_point);
    hypermapper::Evaluation default_eval;
    default_eval.point = default_point;
    default_eval.objectives = default_outcome.objectives;
    default_eval.valid = default_outcome.valid;
    default_eval.method = "default";
    std::printf("default config: runtime %.3f s/frame (%.1f FPS), "
                "max ATE %.4f m, %.2f W\n",
                default_eval.objectives[core::kObjRuntime],
                1.0 / default_eval.objectives[core::kObjRuntime],
                default_eval.objectives[core::kObjMaxAte],
                default_eval.objectives[core::kObjWatts]);

    // --- Random-sampling baseline. ---
    hypermapper::RandomSearchOptions rs_options;
    rs_options.budget = random_budget;
    rs_options.seed = seed;
    rs_options.threads = dse_threads;
    std::printf("running random sampling (%zu evaluations)...\n",
                rs_options.budget);
    const auto random_evals =
        hypermapper::randomSearch(space, evaluator, rs_options);

    // --- HyperMapper active learning. ---
    hypermapper::ActiveLearningOptions al_options;
    al_options.warmupSamples = warmup;
    al_options.iterations = iterations;
    al_options.batchSize = batch;
    al_options.candidatePool = 2000;
    al_options.forest.numTrees = 30;
    al_options.seed = seed + 1000;
    al_options.threads = dse_threads;
    std::printf("running active learning (%zu evaluations)...\n",
                warmup + iterations * batch);
    const auto al_result = hypermapper::activeLearning(
        space, evaluator, core::kNumObjectives, al_options);

    // --- Scatter CSV (the left pane of Fig. 2). ---
    {
        std::ofstream out("fig2_scatter.csv");
        std::vector<std::string> header{"method", "iteration",
                                        "valid", "runtime_s",
                                        "max_ate_m", "watts"};
        for (const auto &name : space.names())
            header.push_back(name);
        support::CsvWriter csv(out, header);
        writeRows(csv, {default_eval}, space);
        writeRows(csv, random_evals, space);
        writeRows(csv, al_result.evaluations, space);
        csv.endRow();
        support::logInfo() << "wrote fig2_scatter.csv ("
                           << csv.rowCount() << " rows)";
    }

    // --- Best-under-accuracy-limit comparison. ---
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> ate_cap{inf, 0.05, inf};
    const double best_random =
        hypermapper::bestUnderCaps(random_evals, core::kObjRuntime,
                                   ate_cap);
    const double best_active = hypermapper::bestUnderCaps(
        al_result.evaluations, core::kObjRuntime, ate_cap);
    std::printf("\nbest runtime with Max ATE <= 0.05 m:\n");
    std::printf("  random sampling : %.4f s/frame\n", best_random);
    std::printf("  active learning : %.4f s/frame\n", best_active);
    std::printf("  default         : %.4f s/frame\n",
                default_eval.objectives[core::kObjRuntime]);
    if (best_active < inf) {
        std::printf("  active-learning speedup over default: %.2fx\n",
                    default_eval.objectives[core::kObjRuntime] /
                        best_active);
    }

    // --- Pareto fronts. ---
    auto front_size = [](const std::vector<hypermapper::Evaluation>
                             &evals) {
        return hypermapper::paretoFront(evals).size();
    };
    std::printf("\npareto-front sizes: random %zu, active %zu\n",
                front_size(random_evals),
                front_size(al_result.evaluations));
    const double hv_random = hypermapper::hypervolume2d(
        random_evals, 0.5, 0.1);
    const double hv_active = hypermapper::hypervolume2d(
        al_result.evaluations, 0.5, 0.1);
    std::printf("hypervolume (runtime x ate, ref 0.5s/0.1m): "
                "random %.5f, active %.5f (%s)\n",
                hv_random, hv_active,
                hv_active >= hv_random ? "active wins"
                                       : "random wins");

    // --- Knowledge extraction (the right pane of Fig. 2). ---
    std::vector<hypermapper::Evaluation> all = random_evals;
    all.insert(all.end(), al_result.evaluations.begin(),
               al_result.evaluations.end());
    all.push_back(default_eval);

    hypermapper::GoodnessCriteria criteria;
    criteria.maxAteLimit = 0.05; // accurate
    criteria.minFps = 30.0;      // fast (real-time)
    criteria.maxWatts = 3.0;     // power-efficient
    const auto knowledge =
        hypermapper::extractKnowledge(space, all, criteria, 3);
    std::printf("\nknowledge extraction: %zu/%zu configurations are "
                "GOOD (ATE<5cm, >30FPS, <3W); tree accuracy %.2f\n",
                knowledge.goodCount, knowledge.totalCount,
                knowledge.trainAccuracy);
    std::printf("%s\n", knowledge.rules.c_str());

    // --- The tuned configuration (for Fig. 3 / headline). ---
    const std::vector<double> tuned_caps{inf, 0.05, 1.0};
    double best = inf;
    const hypermapper::Evaluation *best_eval = nullptr;
    for (const auto &e : all) {
        if (!e.valid)
            continue;
        if (e.objectives[core::kObjMaxAte] > 0.05 ||
            e.objectives[core::kObjWatts] > 1.0)
            continue;
        if (e.objectives[core::kObjRuntime] < best) {
            best = e.objectives[core::kObjRuntime];
            best_eval = &e;
        }
    }
    if (best_eval) {
        std::printf("best config under ATE<5cm AND power<1W:\n  %s\n"
                    "  runtime %.4f s/frame (%.1f FPS), ate %.4f m, "
                    "%.2f W\n",
                    space.describe(best_eval->point).c_str(), best,
                    1.0 / best,
                    best_eval->objectives[core::kObjMaxAte],
                    best_eval->objectives[core::kObjWatts]);
    } else {
        std::printf("no configuration met ATE<5cm AND power<1W in "
                    "this run\n");
    }

    // --- Machine-readable run report: per-frame telemetry of the
    // default configuration plus the DSE outcome scalars. The
    // per-evaluation records are in the registry (`dse.*` counters
    // and the `dse.eval_wall_seconds` histogram) and, at --verbose,
    // one DEBUG report line per sampled configuration.
    if (!eval_log.empty()) {
        core::appendRunTelemetry(metrics_session, "default",
                                 eval_log.front().bench, &xu3);
    }
    metrics_session.setSummary(
        "dse_evaluations", static_cast<double>(eval_log.size()));
    if (best_random < inf)
        metrics_session.setSummary("best_random_runtime_s",
                                   best_random);
    if (best_active < inf)
        metrics_session.setSummary("best_active_runtime_s",
                                   best_active);
    metrics_session.setSummary("hypervolume_random", hv_random);
    metrics_session.setSummary("hypervolume_active", hv_active);
    metrics_session.finish();
    return 0;
}
