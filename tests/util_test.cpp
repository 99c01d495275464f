#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <vector>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"
#include "convbound/util/rng.hpp"
#include "convbound/util/table.hpp"
#include "convbound/util/thread_pool.hpp"
#include "convbound/util/timer.hpp"

namespace convbound {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(CB_CHECK(false), Error);
  try {
    CB_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(CB_CHECK(2 + 2 == 4)); }

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(Math, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(Math, Divisors) {
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(13), (std::vector<std::int64_t>{1, 13}));
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

// Rng is a UniformRandomBitGenerator, so standard distributions accept it.
TEST(Rng, DrivesStandardDistributions) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~std::uint64_t{0});
  Rng rng(5);
  std::uniform_int_distribution<int> die(1, 6);
  for (int i = 0; i < 100; ++i) {
    const int v = die(rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
  }
}

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(fut.get(), Error);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 57) throw Error("boom at 57");
                        }),
      Error);
  // The pool must stay usable after a throwing parallel_for.
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ParallelForStress) {
  // Many back-to-back parallel_for rounds, each touching every index exactly
  // once — the shape of the batched tuning loop (propose/measure/learn).
  ThreadPool pool(8);
  const std::size_t n = 512;
  std::vector<int> hits(n);
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 50) << i;
}

TEST(ThreadPool, SubmitFromParallelForBody) {
  // A parallel_for body may enqueue more work (enqueueing never blocks);
  // the futures are claimed after the loop so a saturated pool cannot
  // deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::mutex mu;
  std::vector<std::future<void>> futs;
  pool.parallel_for(0, 8, [&](std::size_t) {
    auto f = pool.submit([&] { ++total; });
    std::lock_guard<std::mutex> lock(mu);
    futs.push_back(std::move(f));
  });
  for (auto& f : futs) f.get();
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCompletes) {
  // More outer tasks than workers, each running an inner parallel_for on
  // the same pool: the shape of a striped SimGpu launch issued from inside
  // a pool task.
  // Waiting on inner chunks queued behind the waiting outer tasks used to
  // deadlock here.
  for (std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 16;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallel_for(0, kOuter, [&](std::size_t o) {
      pool.parallel_for(0, kInner,
                        [&](std::size_t i) { ++hits[o * kInner + i]; });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
      EXPECT_EQ(hits[k].load(), 1) << "threads=" << threads << " k=" << k;
  }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions) {
  for (std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    std::atomic<int> inner_runs{0};
    const auto outer = [&](std::size_t o) {
      pool.parallel_for(0, 8, [&](std::size_t i) {
        ++inner_runs;
        if (o == 3 && i == 5) throw Error("inner boom");
      });
    };
    EXPECT_THROW(pool.parallel_for(0, 5, outer), Error)
        << "threads=" << threads;
    EXPECT_GT(inner_runs.load(), 0);
    // The pool stays usable after the nested throw.
    std::atomic<int> count{0};
    pool.parallel_for(0, 32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(Table, AlignsAndCounts) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(42), "42");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace convbound
