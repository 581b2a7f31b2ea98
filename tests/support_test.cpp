/**
 * @file
 * Unit tests for the support substrate: RNG, statistics, CSV,
 * strings, images, and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/csv.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace slambench::support;

// --- Rng ---

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.uniformInt(int64_t{3}, int64_t{7});
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(stat.mean(), 2.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(19);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = v;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitStreamsAreIndependentish)
{
    Rng a(29);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LT(same, 2);
}

// --- RunningStat ---

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Rng rng(3);
    RunningStat all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(1.0, 2.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// --- percentile ---

TEST(Percentile, EdgesAndMedian)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Percentile, Interpolates)
{
    std::vector<double> v{0, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(Percentile, EmptyReturnsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, SingleElementIsEveryPercentile)
{
    const std::vector<double> v{7.5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 7.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 7.5);
}

TEST(Percentile, DuplicateHeavyInput)
{
    // 9 copies of 1.0 and a single outlier: low/median percentiles
    // sit on the plateau, only the very top interpolates toward it.
    std::vector<double> v(9, 1.0);
    v.push_back(100.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 88), 1.0);
    EXPECT_GT(percentile(v, 95), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);

    // All-identical input: every percentile is that value.
    const std::vector<double> flat(17, 3.25);
    EXPECT_DOUBLE_EQ(percentile(flat, 10), 3.25);
    EXPECT_DOUBLE_EQ(percentile(flat, 90), 3.25);
}

// --- Histogram ---

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-5.0); // clamps into bin 0
    h.add(50.0); // clamps into bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.binLo(4), 8.0);
    EXPECT_DOUBLE_EQ(h.binHi(4), 10.0);
}

TEST(Histogram, AsciiHasOneLinePerBin)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.1);
    const std::string art = h.toAscii();
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

// --- CsvWriter ---

TEST(Csv, HeaderAndRows)
{
    std::ostringstream out;
    {
        CsvWriter csv(out, {"a", "b"});
        csv.beginRow().cell(int64_t{1}).cell("x");
        csv.beginRow().cell(2.5).cell("y");
    }
    EXPECT_EQ(out.str(), "a,b\n1,x\n2.5,y\n");
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
    EXPECT_EQ(CsvWriter::escape("l\nl"), "\"l\nl\"");
}

TEST(Csv, RowCountTracksCompleteRows)
{
    std::ostringstream out;
    CsvWriter csv(out, {"a"});
    EXPECT_EQ(csv.rowCount(), 0u);
    csv.beginRow().cell("1");
    csv.endRow();
    EXPECT_EQ(csv.rowCount(), 1u);
}

// --- strings ---

TEST(Strings, Split)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(Strings, SplitNoSeparator)
{
    const auto fields = split("abc", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "abc");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\n x"), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ToLowerAndStartsWith)
{
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("hello", "lo"));
    EXPECT_FALSE(startsWith("h", "hello"));
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(Strings, ParseDouble)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble(" 2.5 ", v));
    EXPECT_DOUBLE_EQ(v, 2.5);
    EXPECT_FALSE(parseDouble("abc", v));
    EXPECT_FALSE(parseDouble("1.5x", v));
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("1e999", v));
}

TEST(Strings, ParseLong)
{
    long v = 0;
    EXPECT_TRUE(parseLong("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_FALSE(parseLong("4.2", v));
    EXPECT_FALSE(parseLong("99999999999999999999", v));
}

// --- Image ---

TEST(Image, SizeAndAccess)
{
    Image<float> img(4, 3, 1.5f);
    EXPECT_EQ(img.width(), 4u);
    EXPECT_EQ(img.height(), 3u);
    EXPECT_EQ(img.size(), 12u);
    EXPECT_FLOAT_EQ(img(3, 2), 1.5f);
    img(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(img[2 * 4 + 1], 7.0f);
}

TEST(Image, Contains)
{
    Image<int> img(4, 3);
    EXPECT_TRUE(img.contains(0, 0));
    EXPECT_TRUE(img.contains(3, 2));
    EXPECT_FALSE(img.contains(4, 2));
    EXPECT_FALSE(img.contains(-1, 0));
}

TEST(Image, WritePpmRoundTripHeader)
{
    Image<Rgb8> img(2, 2);
    img(0, 0) = {255, 0, 0};
    const std::string path = "/tmp/sb_test_img.ppm";
    ASSERT_TRUE(writePpm(img, path));
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    in >> magic;
    EXPECT_EQ(magic, "P6");
    size_t w, h;
    in >> w >> h;
    EXPECT_EQ(w, 2u);
    EXPECT_EQ(h, 2u);
    std::filesystem::remove(path);
}

TEST(Image, WritePgmRejectsDegenerateRange)
{
    Image<float> img(2, 2, 0.5f);
    EXPECT_FALSE(writePgm(img, "/tmp/sb_test_img.pgm", 1.0f, 1.0f));
}

TEST(Image, AsciiArtShape)
{
    Image<float> img(64, 64, 0.5f);
    const std::string art = asciiArt(img, 32, 0.0f, 1.0f);
    EXPECT_FALSE(art.empty());
    // Every line should be 32 chars + newline.
    const auto first_line = art.substr(0, art.find('\n'));
    EXPECT_EQ(first_line.size(), 32u);
}

// --- ThreadPool ---

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ChunkedCoversRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelForChunked(0, hits.size(),
                            [&](size_t lo, size_t hi) {
                                for (size_t i = lo; i < hi; ++i)
                                    hits[i].fetch_add(1);
                            });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(0, 100, [&](size_t) { sum.fetch_add(1); });
        EXPECT_EQ(sum.load(), 100);
    }
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    pool.parallelFor(0, 50, [&](size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 50);
}

TEST(ThreadPool, NumThreadsAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ThreadPool, NestedParallelFor)
{
    // A parallelFor body opening another region on the same pool must
    // complete (the waiter executes queued tasks cooperatively).
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(8 * 64);
    pool.parallelFor(0, 8, [&](size_t outer) {
        pool.parallelFor(0, 64, [&](size_t inner) {
            hits[outer * 64 + inner].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedOnSingleThreadPool)
{
    // With one worker the nested region runs entirely on the waiting
    // threads; the old broadcast design would have deadlocked or
    // panicked here.
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    pool.parallelFor(0, 4, [&](size_t) {
        pool.parallelFor(0, 16, [&](size_t) { sum.fetch_add(1); });
    });
    EXPECT_EQ(sum.load(), 4 * 16);
}

TEST(ThreadPool, ConcurrentSubmissions)
{
    // Several external threads drive independent loops on one shared
    // pool; each must see its own complete result.
    ThreadPool pool(4);
    constexpr size_t kClients = 6;
    std::vector<std::atomic<int>> sums(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < 10; ++round)
                pool.parallelFor(0, 100, [&](size_t) {
                    sums[c].fetch_add(1);
                });
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (const auto &s : sums)
        EXPECT_EQ(s.load(), 10 * 100);
}

TEST(ThreadPool, TaskGroupSubmitWait)
{
    ThreadPool pool(2);
    ThreadPool::TaskGroup group;
    std::atomic<int> done{0};
    for (int i = 0; i < 32; ++i)
        pool.submit(group, [&] { done.fetch_add(1); });
    pool.wait(group);
    EXPECT_EQ(done.load(), 32);
    EXPECT_EQ(group.pending(), 0u);

    // A group is reusable for another round.
    for (int i = 0; i < 8; ++i)
        pool.submit(group, [&] { done.fetch_add(1); });
    pool.wait(group);
    EXPECT_EQ(done.load(), 40);
}

TEST(ThreadPool, SubmitFromInsideTask)
{
    // Tasks may fork more work into their own group; wait() observes
    // the late submissions.
    ThreadPool pool(2);
    ThreadPool::TaskGroup group;
    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i) {
        pool.submit(group, [&] {
            done.fetch_add(1);
            for (int j = 0; j < 3; ++j)
                pool.submit(group, [&] { done.fetch_add(1); });
        });
    }
    pool.wait(group);
    EXPECT_EQ(done.load(), 4 * 4);
}

TEST(ThreadPool, CountsExecutedTasks)
{
    ThreadPool pool(2);
    const uint64_t before = pool.tasksExecuted();
    pool.parallelFor(0, 1000, [](size_t) {});
    EXPECT_GT(pool.tasksExecuted(), before);
    EXPECT_GE(pool.peakActiveTasks(), 1u);
}

} // namespace
