/**
 * @file
 * Example: HyperMapper-style design-space exploration through the
 * public API. Runs a small active-learning DSE of the KinectFusion
 * parameters against the simulated Odroid-XU3, prints the Pareto
 * front, and extracts the decision-tree knowledge.
 *
 * This is a scaled-down version of what bench_fig2_dse runs in full;
 * it finishes in about a minute.
 *
 * Usage: dse_exploration [budget] [frames] [threads]
 *
 * The third argument sets the evaluation worker count (0 = hardware
 * concurrency, 1 = serial, at most core::kMaxThreads); the explored
 * configurations are identical either way.
 */

#include <cstdio>

#include "core/cli_options.hpp"
#include "core/config_binding.hpp"
#include "core/experiment.hpp"
#include "dataset/generator.hpp"
#include "devices/fleet.hpp"
#include "hypermapper/knowledge.hpp"
#include "support/options.hpp"

int
main(int argc, char **argv)
{
    using namespace slambench;

    // Half the budget warms up the model, and each of the two
    // rounds needs at least one configuration.
    const std::vector<long> args = support::parsePositionalsOrExit(
        argc, argv,
        {{"budget", 24, 4},
         {"frames", 12, 1},
         {"threads", 0, 0, core::kMaxThreads}});
    const auto budget = static_cast<size_t>(args[0]);
    const auto frames = static_cast<size_t>(args[1]);
    const auto threads = static_cast<size_t>(args[2]);

    // 1. Workload: a short synthetic living-room sequence.
    dataset::SequenceSpec spec;
    spec.width = 160;
    spec.height = 120;
    spec.numFrames = frames;
    spec.renderRgb = false;
    const dataset::Sequence sequence = generateSequence(spec);

    // 2. Design space + objective (simulated XU3).
    const auto space = core::kfusionParameterSpace();
    const auto xu3 = devices::odroidXu3();
    auto evaluator = core::makeDseEvaluator(space, sequence, xu3);

    // 3. Active learning: half the budget warms up the model.
    hypermapper::ActiveLearningOptions options;
    options.warmupSamples = budget / 2;
    options.iterations = 2;
    options.batchSize = (budget - options.warmupSamples) / 2;
    options.candidatePool = 500;
    options.forest.numTrees = 15;
    options.seed = 7;
    options.threads = threads;

    std::printf("exploring %zu configurations over %zu frames...\n",
                options.warmupSamples +
                    options.iterations * options.batchSize,
                frames);
    const auto result = hypermapper::activeLearning(
        space, evaluator, core::kNumObjectives, options);

    // 4. Report the Pareto front.
    const auto front = hypermapper::paretoFront(result.evaluations);
    std::printf("\nPareto front (%zu of %zu evaluations):\n",
                front.size(), result.evaluations.size());
    std::printf("%10s %10s %8s  %s\n", "s/frame", "maxATE(m)", "W",
                "configuration");
    for (size_t idx : front) {
        const auto &e = result.evaluations[idx];
        std::printf("%10.4f %10.4f %8.2f  %s\n",
                    e.objectives[core::kObjRuntime],
                    e.objectives[core::kObjMaxAte],
                    e.objectives[core::kObjWatts],
                    space.describe(e.point).c_str());
    }

    // 5. Knowledge extraction (the Fig. 2 right-hand pane).
    hypermapper::GoodnessCriteria criteria;
    criteria.minFps = 20.0; // relaxed: short, small workload
    const auto knowledge = hypermapper::extractKnowledge(
        space, result.evaluations, criteria, 3);
    std::printf("\n%zu/%zu configurations meet all requirements; "
                "induced rules:\n%s\n",
                knowledge.goodCount, knowledge.totalCount,
                knowledge.rules.c_str());
    return 0;
}
